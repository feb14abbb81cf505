"""Construction of the twisted algebra: operators, relations, expansions."""

from functools import partial

import numpy as np
import pytest

import gns_oracle
from gns_oracle import (apply_annihilation, apply_creation, apply_gamma, apply_gamma_star,
                        apply_letter, apply_y, embed_lower, expand, generator_norm, identity,
                        monomial_matrix, random_element, reconstruct, vacuum_state,
                        vacuum_vector, verify_relations, word_of)
from qhyper.babyfock import GEN, LETTER_DEGREE, STAR, UNIT, Y, BabyFock, get_model
from qhyper.signs import ModelParams, SignTable
from test_irrep import _every_sign_table

MU = np.sqrt(2.0)


@pytest.fixture(scope="module")
def m1():
    return BabyFock(ModelParams.make(1, MU, SignTable.all_anticommuting(1)))


@pytest.fixture(scope="module")
def m3():
    return BabyFock(ModelParams.make(3, (1.0, 1.5, 2.0), sign_seed=5))


# basis layout for n=1: index 0 = empty, 1 = {-1}, 2 = {1}, 3 = {-1, 1}


def test_creation_hand_examples(m1):
    bstar = apply_creation(m1, 1, identity(m1))
    assert bstar[2, 0] == 1.0          # x_empty -> x_{1}
    assert bstar[3, 1] == -1.0         # x_{-1} -> -x_{-1,1} since eps(1,-1) = -1
    assert np.all(bstar[:, 2] == 0)    # kills x_{1}
    b = apply_annihilation(m1, -1, identity(m1))
    assert b[2, 3] == 1.0              # x_{-1,1} -> x_{1}, no smaller index in A


def test_gamma_action_and_relations(m1):
    g, gs = apply_gamma(m1, 1, identity(m1)), apply_gamma_star(m1, 1, identity(m1))
    assert abs(g[2, 0] - 1.0 / MU) < 1e-15
    assert abs(g[2, 3] - MU) < 1e-15
    assert np.max(np.abs(g @ g)) < 1e-15
    anti = gs @ g + g @ gs
    assert np.max(np.abs(anti - (MU ** 2 + MU ** -2) * np.eye(4))) < 1e-14


def test_vacuum_state_values(m1):
    assert vacuum_state(identity(m1)) == 1.0
    g = apply_gamma(m1, 1, identity(m1))
    assert abs(vacuum_state(apply_gamma_star(m1, 1, g)) - MU ** -2) < 1e-14
    assert abs(vacuum_state(g)) < 1e-15


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
def test_relations_random_models(n, seed):
    rng = np.random.default_rng(seed)
    mu = tuple(1.0 + 3.0 * rng.random(n))
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    assert max(verify_relations(model).values()) <= 1e-12


def test_relations_mutation_detected(m3):
    bad = dict(m3.params.signs.entries)
    key = next(iter(bad))
    bad[key] = -bad[key]
    corrupted = SignTable.from_dict(bad, m3.n)
    assert max(verify_relations(m3, corrupted).values()) > 0.1


def test_operator_norm(m3):
    for i in range(1, 4):
        mu = m3.mu[i - 1]
        expect = np.sqrt(mu ** 2 + mu ** -2)
        assert abs(generator_norm(m3, i) - expect) < 1e-10 * expect


def dense_relation_residuals(model, check_signs=None):
    """The relation residuals with every product a kernel application to a
    dense 4**n x 4**n generator matrix."""
    eps = (check_signs or model.params.signs).matrix()
    n, g, gs = model.n, partial(apply_gamma, model), partial(apply_gamma_star, model)
    gam = [g(i, identity(model)) for i in range(1, n + 1)]
    gst = [gs(i, identity(model)) for i in range(1, n + 1)]

    def maxabs(M):
        return float(np.max(np.abs(M)))

    comm = star_comm = square = anti = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            e = eps[i - 1, j - 1]
            if i < j:
                comm = max(comm, maxabs(g(i, gam[j - 1]) - e * g(j, gam[i - 1])))
            star_comm = max(star_comm, maxabs(gs(i, gam[j - 1]) - e * g(j, gst[i - 1])))
    for i in range(1, n + 1):
        square = max(square, maxabs(g(i, gam[i - 1])), maxabs(gs(i, gst[i - 1])))
        acomm = gs(i, gam[i - 1]) + g(i, gst[i - 1])
        acomm[np.diag_indices(model.dim)] -= model.mu[i - 1] ** 2 + model.mu[i - 1] ** -2
        anti = max(anti, maxabs(acomm))
    return {"commutation": comm, "star_commutation": star_comm,
            "square": square, "anticommutator": anti}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_relation_probes_equal_dense_residuals_bitwise(n):
    rng = np.random.default_rng(70 + n)
    model = BabyFock(ModelParams.make(n, tuple(1.0 + 3.0 * rng.random(n)), sign_seed=70 + n))
    # the same residuals in the same order: ``relations`` emits its records in it
    assert list(verify_relations(model).items()) == list(dense_relation_residuals(model).items())
    if n > 1:
        bad = dict(model.params.signs.entries)
        key = next(iter(bad))
        bad[key] = -bad[key]
        corrupted = SignTable.from_dict(bad, n)
        got = verify_relations(model, corrupted)
        assert got == dense_relation_residuals(model, corrupted)
        assert max(got.values()) > 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_norm_matches_dense_two_norm(n):
    model = BabyFock(ModelParams.make(n, tuple(1.0 + 0.7 * k for k in range(n)),
                                      sign_seed=80 + n))
    for i in range(1, n + 1):
        want = np.linalg.norm(apply_gamma(model, i, identity(model)), 2)
        assert abs(generator_norm(model, i) - want) <= 1e-12 * want


def test_relations_and_norms_never_build_dense_matrices(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense 4**n matrix built")

    monkeypatch.setattr(gns_oracle, "identity", forbidden)
    mu = (1.0, 1.5, 2.0, 2.5, 3.0)
    model = BabyFock(ModelParams.make(5, mu, sign_seed=5))
    assert max(verify_relations(model).values()) <= 1e-12
    for i in range(1, 6):
        expect = np.sqrt(mu[i - 1] ** 2 + mu[i - 1] ** -2)
        assert abs(generator_norm(model, i) - expect) <= 1e-12 * expect


def test_monomial_embedding_values(m3):
    # y_n hits the basis vector of {-n, n}
    v = apply_y(m3, 3, vacuum_vector(m3))
    target = (1 << m3._pos[-3]) | (1 << m3._pos[3])
    assert abs(v[target] - 1.0) < 1e-14
    assert np.sum(np.abs(v) > 1e-14) == 1
    # gamma*gamma = mu^-2 unit + y
    gsg = apply_gamma_star(m3, 2, apply_gamma(m3, 2, identity(m3)))
    coeffs = expand(m3, gsg)
    w_unit = m3.windex_of((UNIT, UNIT, UNIT))
    w_y2 = m3.windex_of((UNIT, Y, UNIT))
    expect = np.zeros(m3.dim, dtype=complex)
    expect[w_unit] = m3.mu[1] ** -2
    expect[w_y2] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-13)


def test_expand_round_trip_and_membership(m3):
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(m3.dim) + 1j * rng.standard_normal(m3.dim)
    X = reconstruct(m3, coeffs)
    assert np.allclose(expand(m3, X), coeffs, atol=1e-10)
    assert np.isfinite(m3.embedding_condition())


def test_monomial_letter_order(m3):
    # stored word (w_1, w_2, w_3) is the operator product w_1 w_2 w_3
    word = (GEN, STAR, UNIT)
    direct = apply_gamma(m3, 1, identity(m3)) @ apply_gamma_star(m3, 2, identity(m3))
    assert np.allclose(monomial_matrix(m3, word), direct, atol=1e-13)


def test_vacuum_factorization(m3):
    # tau(c a b) = tau(a) tau(c b) for a generated by the top index,
    # b, c from the lower indices
    rng = np.random.default_rng(21)
    sub = get_model(m3.params.sub(2))
    letters = [apply_letter(m3, L, 3, identity(m3)) for L in (UNIT, GEN, STAR, Y)]
    wa = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = sum(w * L for w, L in zip(wa, letters))
    b = embed_lower(random_element(sub, rng), sub, m3)
    c = embed_lower(random_element(sub, rng), sub, m3)
    lhs = vacuum_state(c @ a @ b)
    rhs = vacuum_state(a) * vacuum_state(c @ b)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_centralizer_commutation(m3):
    w = apply_gamma_star(m3, 3, apply_gamma(m3, 3, identity(m3)))
    for i in (1, 2):
        g = apply_gamma(m3, i, identity(m3))
        comm = w @ g - g @ w
        assert np.max(np.abs(comm)) < 1e-12


def test_index_range_errors(m1):
    with pytest.raises(ValueError):
        apply_creation(m1, 2, vacuum_vector(m1))
    with pytest.raises(ValueError):
        apply_gamma(m1, -1, vacuum_vector(m1))
    with pytest.raises(ValueError):
        m1.windex_of((GEN, GEN))


@pytest.mark.parametrize("word", [(4, UNIT), (-1, UNIT), (UNIT, 7), (GEN, -4)])
def test_windex_rejects_unknown_letters(word):
    # (4, 0) would alias the index of (0, 1) and (-1, 0) would wrap to the last word
    model = get_model(ModelParams.make(2, (1.0, 1.5), sign_seed=1))
    with pytest.raises(ValueError, match="unknown letter"):
        model.windex_of(word)
    with pytest.raises(ValueError, match="unknown letter"):
        model.irrep_matrix(word)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_table_matches_monomial_matrix(n):
    model = BabyFock(ModelParams.make(n, tuple(1.0 + 0.4 * k for k in range(n)),
                                      sign_seed=40 + n))
    word, row, col, val = model.monomial_table()
    assert not val.flags.writeable
    # one entry per (word, row, col): the table needs no combine step
    assert np.unique((word * model.dim + row) * model.dim + col).size == word.size
    dense = np.zeros((model.dim,) * 3)
    dense[word, row, col] = val
    for w in range(model.dim):
        want = monomial_matrix(model, word_of(model, w))
        assert np.max(np.abs(dense[w] - want)) <= 1e-15 * np.max(np.abs(want))


# every sign table at n <= 3 (1, 2 and 8 tables), random ones at n = 4..6
CLOSED_FORM_MODELS = [ModelParams(n, tuple(2.2 - 0.3 * k for k in range(n)), signs)
                      for n in (1, 2, 3) for signs in _every_sign_table(n)] \
    + [ModelParams.make(n, tuple(1.0 + 0.4 * k for k in range(n)), sign_seed=50 + n)
       for n in (4, 5, 6)]


def _table_vacuum_column(model):
    """(word, row, val) of the monomial table's column-0 entries: at n <= 4 read off the
    cached table, beyond by its own letter steps started from column 0 alone."""
    if model.n <= 4:
        word, row, col, val = model.monomial_table()
        return word[col == 0], row[col == 0], val[col == 0]
    entries = (np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1))
    for i in range(model.n, 0, -1):
        parts = [entries]
        for letter in (GEN, STAR, Y):
            parts += model._letter_entries(letter, i, *entries)
        entries = tuple(np.concatenate(a) for a in zip(*parts))
    return entries[0], entries[1], entries[3]


def _dense_vacuum_columns(model):
    """(words, columns): M_w x_empty by the letter kernels, index n first, in chunks of
    the 4**min(n, 4) words that share their letters above index 4."""
    low = min(model.n, 4)
    for prefix in range(4 ** (model.n - low)):
        V = vacuum_vector(model)[:, None]
        for i in range(model.n, low, -1):
            V = apply_letter(model, (prefix >> 2 * (i - low - 1)) & 3, i, V)
        for i in range(low, 0, -1):
            V = np.stack([apply_letter(model, letter, i, V) for letter in (UNIT, GEN, STAR, Y)],
                         axis=2).reshape(model.dim, -1)
        yield prefix * 4 ** low + np.arange(4 ** low), V


@pytest.mark.parametrize("params", CLOSED_FORM_MODELS,
                         ids=lambda pr: f"n{pr.n}-" + "".join("+" if s > 0 else "-"
                                                              for _, s in pr.signs.entries))
def test_vacuum_weights_and_degrees_match_the_vacuum_column(params):
    model = BabyFock(params)
    weights, degree = model.vacuum_weights, model.monomial_degrees
    assert not weights.flags.writeable and not degree.flags.writeable
    word, row, val = _table_vacuum_column(model)
    assert np.array_equal(np.sort(word), np.arange(model.dim))
    target, amp = np.zeros(model.dim, np.int64), np.zeros(model.dim)
    target[word], amp[word] = row, val
    # the closed form is the table's amplitude squared, bit for bit
    assert weights.tobytes() == (np.abs(amp) ** 2).tobytes()
    for words, V in _dense_vacuum_columns(model):
        want = np.zeros(V.shape)
        want[target[words], np.arange(words.size)] = amp[words]
        assert np.max(np.abs(V - want) / np.abs(amp[words])) <= 1e-15
        got = np.sum(np.abs(V) ** 2, axis=0)
        assert np.max(np.abs(got - weights[words]) / weights[words]) <= 1e-15
    letters = (np.arange(model.dim)[:, None] >> 2 * np.arange(model.n)) & 3
    assert np.array_equal(degree, np.asarray(LETTER_DEGREE)[letters].sum(axis=1))
    # g_i and g*_i put one bit into the vacuum's target, y_i two
    assert np.array_equal(degree, np.bitwise_count(target))


def test_irrep_build_check_rejects_a_wrong_closed_form(monkeypatch):
    # mu and 1/mu swapped for g*: the irrep's weights no longer match, so the build raises
    def swapped(self):
        return self._per_word(lambda k: np.array([1.0, 1.0 / self.mu[k], 1.0 / self.mu[k], 1.0]),
                              np.multiply) ** 2

    params = ModelParams.make(2, (1.5, 2.0), sign_seed=3)
    BabyFock(params).irrep()
    monkeypatch.setattr(BabyFock, "vacuum_weights", property(swapped))
    with pytest.raises(AssertionError, match="vacuum state"):
        BabyFock(params).irrep()


def test_reconstruct_n4_matches_per_word_sum():
    model = BabyFock(ModelParams.make(4, (1.3, 1.0, 2.1, 1.6), sign_seed=44))
    rng = np.random.default_rng(44)
    coeffs = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    got = reconstruct(model, coeffs)
    want = np.zeros((model.dim, model.dim), dtype=np.complex128)
    for w in range(model.dim):
        want += coeffs[w] * monomial_matrix(model, word_of(model, w))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), ()])
def test_reconstruct_rejects_wrong_coefficient_shape(shape):
    model = BabyFock(ModelParams.make(2, (1.3, 2.0), sign_seed=2))
    with pytest.raises(ValueError, match="16 monomial coefficients"):
        reconstruct(model, np.ones(shape))
