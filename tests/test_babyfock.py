"""Construction of the twisted algebra: operators, relations, expansions."""

import numpy as np
import pytest

from qhyper.babyfock import GEN, LETTER_DEGREE, STAR, UNIT, Y, BabyFock, get_model, opnorm
from qhyper.signs import ModelParams, SignTable

MU = np.sqrt(2.0)


@pytest.fixture(scope="module")
def m1():
    return BabyFock(ModelParams.make(1, MU, SignTable.all_anticommuting(1)))


@pytest.fixture(scope="module")
def m3():
    return BabyFock(ModelParams.make(3, (1.0, 1.5, 2.0), sign_seed=5))


# basis layout for n=1: index 0 = empty, 1 = {-1}, 2 = {1}, 3 = {-1, 1}


def test_creation_hand_examples(m1):
    bstar = m1.creation(1)
    assert bstar[2, 0] == 1.0          # x_empty -> x_{1}
    assert bstar[3, 1] == -1.0         # x_{-1} -> -x_{-1,1} since eps(1,-1) = -1
    assert np.all(bstar[:, 2] == 0)    # kills x_{1}
    b = m1.annihilation(-1)
    assert b[2, 3] == 1.0              # x_{-1,1} -> x_{1}, no smaller index in A


def test_gamma_action_and_relations(m1):
    g = m1.gamma(1)
    assert abs(g[2, 0] - 1.0 / MU) < 1e-15
    assert abs(g[2, 3] - MU) < 1e-15
    assert np.max(np.abs(g @ g)) < 1e-15
    anti = m1.gamma_star(1) @ g + g @ m1.gamma_star(1)
    assert np.max(np.abs(anti - (MU ** 2 + MU ** -2) * np.eye(4))) < 1e-14


def test_vacuum_state_values(m1):
    assert m1.vacuum_state(m1.identity()) == 1.0
    gsg = m1.apply_gamma_star(1, m1.gamma(1))
    assert abs(m1.vacuum_state(gsg) - MU ** -2) < 1e-14
    assert abs(m1.vacuum_state(m1.gamma(1))) < 1e-15


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
def test_relations_random_models(n, seed):
    rng = np.random.default_rng(seed)
    mu = tuple(1.0 + 3.0 * rng.random(n))
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    assert model.verify_relations().passed(1e-12)


def test_relations_mutation_detected(m3):
    bad = dict(m3.params.signs.entries)
    key = next(iter(bad))
    bad[key] = -bad[key]
    corrupted = SignTable.from_dict(bad, m3.n)
    assert m3.verify_relations(corrupted).max_residual > 0.1


def test_operator_norm(m3):
    for i in range(1, 4):
        mu = m3.mu[i - 1]
        expect = np.sqrt(mu ** 2 + mu ** -2)
        assert abs(opnorm(np.asarray(m3.gamma(i))) - expect) < 1e-10 * expect


def test_monomial_embedding_values(m3):
    # y_n hits the basis vector of {-n, n}
    v = m3.apply_y(3, m3.vacuum_vector())
    target = (1 << m3._pos[-3]) | (1 << m3._pos[3])
    assert abs(v[target] - 1.0) < 1e-14
    assert np.sum(np.abs(v) > 1e-14) == 1
    # gamma*gamma = mu^-2 unit + y
    gsg = m3.apply_gamma_star(2, m3.gamma(2))
    coeffs = m3.expand(gsg)
    w_unit = m3.windex_of((UNIT, UNIT, UNIT))
    w_y2 = m3.windex_of((UNIT, Y, UNIT))
    expect = np.zeros(m3.dim, dtype=complex)
    expect[w_unit] = m3.mu[1] ** -2
    expect[w_y2] = 1.0
    assert np.allclose(coeffs, expect, atol=1e-13)


def test_expand_round_trip_and_membership(m3):
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(m3.dim) + 1j * rng.standard_normal(m3.dim)
    X = m3.reconstruct(coeffs)
    assert np.allclose(m3.expand(X), coeffs, atol=1e-10)
    assert m3.membership_residual(X) < 1e-9
    assert np.isfinite(m3.embedding_condition())


def test_monomial_letter_order(m3):
    # stored word (w_1, w_2, w_3) is the operator product w_1 w_2 w_3
    word = (GEN, STAR, UNIT)
    direct = m3.gamma(1) @ m3.gamma_star(2)
    assert np.allclose(m3.monomial_matrix(word), direct, atol=1e-13)


def test_vacuum_factorization(m3):
    # tau(c a b) = tau(a) tau(c b) for a generated by the top index,
    # b, c from the lower indices
    rng = np.random.default_rng(21)
    sub = get_model(m3.params.sub(2))
    from qhyper.state import embed_lower

    letters = [m3.identity(), m3.gamma(3), m3.gamma_star(3), m3.y_op(3)]
    wa = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = sum(w * L for w, L in zip(wa, letters))
    b = embed_lower(sub.random_element(rng), sub, m3)
    c = embed_lower(sub.random_element(rng), sub, m3)
    lhs = m3.vacuum_state(c @ a @ b)
    rhs = m3.vacuum_state(a) * m3.vacuum_state(c @ b)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_centralizer_commutation(m3):
    w = m3.apply_gamma_star(3, m3.gamma(3))
    for i in (1, 2):
        comm = w @ m3.gamma(i) - m3.gamma(i) @ w
        assert np.max(np.abs(comm)) < 1e-12


def test_index_range_errors(m1):
    with pytest.raises(ValueError):
        m1.creation(2)
    with pytest.raises(ValueError):
        m1.gamma(-1)
    with pytest.raises(ValueError):
        m1.windex_of((GEN, GEN))


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
        want = model.monomial_matrix(model.word_of(w))
        assert np.max(np.abs(dense[w] - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_data_is_the_vacuum_column(n):
    model = BabyFock(ModelParams.make(n, tuple(2.2 - 0.3 * k for k in range(n)),
                                      sign_seed=50 + n))
    target, amp, degree = model._monomial_data()
    for w in range(model.dim):
        want = np.zeros(model.dim)
        want[target[w]] = amp[w]
        got = model.monomial_matrix(model.word_of(w))[:, 0]
        assert np.max(np.abs(got - want)) <= 1e-15 * abs(amp[w])
        assert degree[w] == sum(LETTER_DEGREE[letter] for letter in model.word_of(w))


def test_reconstruct_n4_matches_per_word_sum():
    model = BabyFock(ModelParams.make(4, (1.3, 1.0, 2.1, 1.6), sign_seed=44))
    rng = np.random.default_rng(44)
    coeffs = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    got = model.reconstruct(coeffs)
    want = np.zeros((model.dim, model.dim), dtype=np.complex128)
    for w in range(model.dim):
        want += coeffs[w] * model.monomial_matrix(model.word_of(w))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("shape", [(15,), (17,), (16, 1), ()])
def test_reconstruct_rejects_wrong_coefficient_shape(shape):
    model = BabyFock(ModelParams.make(2, (1.3, 2.0), sign_seed=2))
    with pytest.raises(ValueError, match="16 monomial coefficients"):
        model.reconstruct(np.ones(shape))
