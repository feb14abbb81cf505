"""Density construction, Haagerup norms, and modular commutation."""

import gc
import weakref

import numpy as np
import pytest

from gns_oracle import (apply_letter, contraction_ratio, dual_contraction_ratio, eigh_power,
                        embed_lower, haagerup_norm, modular_check, monomial_matrix,
                        random_element, reconstruct, word_of)
from qhyper import state
from qhyper.babyfock import GEN, STAR, UNIT, Y, BabyFock, get_model
from qhyper.signs import ModelParams, SignTable
from qhyper.state import defining_property_residual, density_solve, get_density

MU = np.sqrt(2.0)


@pytest.fixture(scope="module")
def m1():
    return BabyFock(ModelParams.make(1, MU, SignTable.all_anticommuting(1)))


@pytest.fixture(scope="module")
def m2():
    return BabyFock(ModelParams.make(2, (1.5, 2.0), sign_seed=3))


def test_density_small_closed_forms(m1):
    D = get_density(m1)
    # lambda = 1/5 at mu^2 = 2: eigenvalues {lambda/2, lambda/2, (1 - lambda)/2, (1 - lambda)/2}
    assert np.allclose(np.sort(np.linalg.eigvalsh(D)), [0.1, 0.1, 0.4, 0.4], rtol=0, atol=1e-15)
    assert abs(np.trace(D).real - 1.0) < 1e-12
    flat = BabyFock(ModelParams.make(1, 1.0, SignTable.all_anticommuting(1)))
    assert np.allclose(get_density(flat), np.eye(4) / 4, atol=1e-14)


def test_density_projections_commute(m2):
    D = get_density(m2)
    for i in range(1, m2.n + 1):
        mu = m2.mu[i - 1]
        p = m2.apply_gamma_star(i, m2.apply_gamma(i, m2.identity())) / (mu ** 2 + mu ** -2)
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert np.linalg.norm(D @ p - p @ D) < 1e-10


def test_density_is_checked_once_per_model(monkeypatch):
    """Whichever power is asked first, D is built and checked once per model."""
    calls = []
    check = state.defining_property_residual
    monkeypatch.setattr(state, "defining_property_residual",
                        lambda model, D: calls.append(model) or check(model, D))
    for order in ((0.5, 1.0, 0.5, 2.0, 1.0), (1.0, 0.5, 1.0, -0.5)):
        model = BabyFock(ModelParams.make(2, (1.5, 2.0), sign_seed=3))
        for alpha in order:
            get_density(model, alpha)
            assert calls == [model]
        haagerup_norm(model, model.identity(), 1.5)
        modular_check(model, 3.0)
        assert calls == [model]
        calls.clear()


def test_corrupted_density_build_is_rejected(monkeypatch):
    model = BabyFock(ModelParams.make(2, (1.5, 2.0), sign_seed=3))
    star = model.apply_gamma_star
    # a projection off by 1e-6 gives a D that misrepresents tau on some word
    monkeypatch.setattr(model, "apply_gamma_star", lambda i, X: (1.0 + 1e-6) * star(i, X))
    for alpha in (0.5, 1.0):
        with pytest.raises(AssertionError, match="does not represent the vacuum state"):
            get_density(model, alpha)
    assert not model._matrix_cache.keys() & {("density", 1.0), ("density", 0.5)}


POWER_MODELS = [(1, (1.4,), 0), (2, (1.5, 2.0), 3), (3, (1.2, 2.0, 1.0), 9),
                (4, (1.5, 1.1, 2.4, 1.0), 74)]


def dense_product_density(model):
    """D by dense right products with the projections, normalized by its trace."""
    D = model.identity()
    for i in range(1, model.n + 1):
        mu = model.mu[i - 1]
        p = model.apply_gamma_star(i, model.apply_gamma(i, model.identity()))
        p /= mu ** 2 + mu ** -2
        lam = 1.0 / (1.0 + mu ** 4)
        D = (1.0 - lam) * D + (2.0 * lam - 1.0) * (D @ p)
    return D / np.trace(D).real


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("n,mu,seed", POWER_MODELS)
def test_power_matches_eigh_power(n, mu, seed):
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    D = dense_product_density(model)
    for alpha in (1.0, 0.8, 0.5, 0.25, -0.5):
        assert _rel(get_density(model, alpha), eigh_power(D, alpha)) <= 1e-12
    # the 2**-n normalization is exact: no trace is divided out
    assert abs(np.trace(get_density(model)).real - 1.0) <= 1e-14


@pytest.mark.parametrize("n,mu,seed", POWER_MODELS[1:3])
def test_power_is_multiplicative(n, mu, seed):
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    for a, b in ((0.5, 0.5), (0.25, 0.75), (1.0 / 3.0, -0.5), (0.8, 1.2)):
        assert _rel(get_density(model, a) @ get_density(model, b),
                    get_density(model, a + b)) <= 1e-12


@pytest.mark.parametrize("n,mu,seed", POWER_MODELS)
def test_density_route_needs_no_eigendecomposition(monkeypatch, n, mu, seed):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigh called on the density route")

    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    x = random_element(model, np.random.default_rng(n))
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    get_density(model)
    assert haagerup_norm(model, x, 1.5) > 0
    assert max(modular_check(model, 1.5)) <= 1e-9
    assert contraction_ratio(model, x, 0.3, 1.5) > 0
    assert dual_contraction_ratio(model, x, 0.3, 4.0) > 0


def test_model_and_density_form_no_cycle():
    """The model caches only arrays, so it is freed by reference counting alone."""
    gc.disable()
    try:
        model = BabyFock(ModelParams.make(2, (1.5, 2.0), sign_seed=3))
        get_density(model)
        haagerup_norm(model, model.apply_gamma(1, model.identity()), 1.5)
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


def dense_modular(model, p):
    """modular_check by dense products with the generators."""
    dp = state.get_density(model, 1.0 / p)
    out = []
    for k in range(1, model.n + 1):
        g = model.apply_gamma(k, model.identity())
        lhs, rhs = dp @ g, model.mu[k - 1] ** (4.0 / p) * (g @ dp)
        out.append(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), np.linalg.norm(rhs)))
    return np.array(out)


@pytest.mark.parametrize("n,mu,seed", POWER_MODELS[1:])
def test_modular_check_matches_dense_products(monkeypatch, n, mu, seed):
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    for p in (1.0, 1.5, 3.0):
        assert np.max(np.abs(np.array(modular_check(model, p)) - dense_modular(model, p))) <= 1e-12
    # a wrong power breaks the relation at every mu_k != 1, and both forms see
    # the same residual
    power = state.get_density
    monkeypatch.setattr(state, "get_density", lambda model, a=1.0: power(model, 0.7 * a))
    broken = model.mu != 1.0
    for p in (1.0, 1.5, 3.0):
        got, want = np.array(modular_check(model, p)), dense_modular(model, p)
        assert np.all(got[broken] > 1e-3) and np.all(want[broken] > 1e-3)
        assert np.max(np.abs(got - want)[broken] / want[broken]) <= 1e-10
        assert np.max(np.abs(got - want)[~broken], initial=0.0) <= 1e-12


@pytest.mark.parametrize("n,seed,mu", [(1, 0, (1.4,)), (2, 5, (1.0, 1.7)),
                                       (3, 9, (1.2, 2.0, 1.0))])
def test_density_solve_agreement(n, seed, mu):
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    closed = get_density(model)
    solved = reconstruct(model, density_solve(model))
    assert np.linalg.norm(solved - closed) <= 1e-9 * np.linalg.norm(closed)


@pytest.mark.parametrize("n,mu,seed", POWER_MODELS[:3])
def test_density_solve_blocks_match_dense_gram(n, mu, seed):
    """The block solve equals the solve of the whole 4**n Gram matrix
    trace(M_a M_b) built from dense monomials, for a random right-hand side,
    which reaches every block and not only the unit word's."""
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    mats = np.stack([monomial_matrix(model, word_of(model, w)) for w in range(model.dim)])
    gram = np.einsum("arc,bcr->ab", mats, mats)
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    dense = reconstruct(model, np.linalg.solve(gram, rhs))
    blocks = reconstruct(model, density_solve(model, vacuum_values=rhs))
    assert np.linalg.norm(blocks - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("n,mu,seed", [(4, 100.0, 0), (6, 5.0, 1), (6, 1.0001, 2),
                                       (3, 1.0 + 1e-8, 3), (3, (1.2, 1.6, 2.0), 4)])
def test_density_solve_matches_closed_form_coefficients(n, mu, seed):
    """The solved coefficients of D against their closed form: per index, a at the
    unit letter and b at y, with n_i = (y_i + mu_i**-2) / (mu_i**2 + mu_i**-2) in
    the factor ((1 - lambda_i) + (2 lambda_i - 1) n_i) / 2, and 0 on a word with a g
    or a g*.  Normwise: near mu = 1 the coefficient b itself cancels."""
    model = BabyFock(ModelParams.make(n, mu, sign_seed=seed))
    mu, c = model.mu, model.mu ** 2 + model.mu ** -2
    lam = 1.0 / (1.0 + mu ** 4)
    a, b = ((1 - lam) + (2 * lam - 1) * mu ** -2 / c) / 2, (2 * lam - 1) / (2 * c)
    letters = (np.arange(model.dim)[:, None] >> 2 * np.arange(n)) & 3
    closed = np.prod(np.where(letters == UNIT, a, np.where(letters == Y, b, 0.0)), axis=1)
    assert np.max(np.abs(density_solve(model) - closed)) <= 1e-12 * np.max(np.abs(closed))


def test_density_solve_corruption_detected(m1):
    rhs = np.zeros(m1.dim, dtype=complex)
    rhs[0] = 1.0
    rhs[3] = 5.0  # above the norm of the degree-two letter: infeasible for PSD
    bad = reconstruct(m1, density_solve(m1, vacuum_values=rhs))
    assert np.min(np.linalg.eigvalsh(bad)) < -1e-6


def test_density_solve_rejects_wrong_length_vacuum_values(m1):
    for size in (m1.dim - 1, m1.dim + 1):
        with pytest.raises(ValueError, match="expected 4 vacuum values"):
            density_solve(m1, vacuum_values=np.ones(size))


def test_haagerup_norm_values(m1):
    for p in (1.0, 1.7, 2.0, 4.0):
        assert abs(haagerup_norm(m1, m1.identity(), p) - 1.0) < 1e-12
    g = m1.apply_gamma(1, m1.identity())
    assert abs(haagerup_norm(m1, g, 2) - 1.0 / MU) < 1e-12
    for p in (1.0, 2.0, 3.0, 6.0):
        closed = (MU ** 2 + MU ** -2) ** 0.5 * (1 + MU ** 4) ** (-1.0 / p)
        assert abs(haagerup_norm(m1, g, p) - closed) < 1e-12 * closed
    with pytest.raises(ValueError):
        haagerup_norm(m1, m1.identity(), 0.5)


def test_l2_orthogonality_of_letters(m1):
    basis = [apply_letter(m1, L, 1, m1.identity()) for L in (UNIT, GEN, STAR, Y)]
    emb = [b @ get_density(m1, 0.5) for b in basis]
    for i in range(4):
        for j in range(4):
            ip = np.trace(emb[j].conj().T @ emb[i])
            if i != j:
                assert abs(ip) < 1e-12
    assert abs(np.trace(emb[3].conj().T @ emb[3]).real - 1.0) < 1e-12  # y norm 1
    assert abs(np.trace(emb[1].conj().T @ emb[1]).real - MU ** -2) < 1e-12
    assert abs(np.trace(emb[2].conj().T @ emb[2]).real - MU ** 2) < 1e-12


def test_norm_monotone_in_p(m2):
    # the vacuum state is normalized, so the L^p norms grow with p
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = random_element(m2, rng)
        vals = [haagerup_norm(m2, x, p) for p in (1, 1.5, 2, 3, 4, 6)]
        assert all(vals[k] <= vals[k + 1] + 1e-10 * vals[k] for k in range(len(vals) - 1))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_modular_commutation(m2, p):
    assert max(modular_check(m2, p)) <= 1e-9


def test_modular_exact_at_mu_one():
    model = BabyFock(ModelParams.make(2, (1.0, 1.0), sign_seed=1))
    assert max(modular_check(model, 2.0)) < 1e-13


def test_embedding_isometry(m2):
    small = get_model(m2.params.sub(1))
    rng = np.random.default_rng(11)
    x = random_element(small, rng)
    lifted = embed_lower(x, small, m2)
    for p in (1.0, 1.7, 2.0, 2.5):
        a = haagerup_norm(small, x, p)
        b = haagerup_norm(m2, lifted, p)
        assert abs(a - b) <= 1e-9 * max(a, 1.0)


def test_embed_lower_rejects_mismatch(m2):
    other = BabyFock(ModelParams.make(1, 3.0, SignTable.all_anticommuting(1)))
    with pytest.raises(ValueError):
        embed_lower(other.identity(), other, m2)


def test_embed_lower_rejects_sign_mismatch():
    # same weights, eps(1, 2) = +1 in the small model and -1 in the big one
    small = BabyFock(ModelParams.make(2, (1.5, 2.0), SignTable.all_commuting(2)))
    big = BabyFock(ModelParams.make(3, (1.5, 2.0, 1.2), SignTable.all_anticommuting(3)))
    g1, g2 = (small.apply_gamma(i, small.identity()) for i in (1, 2))
    with pytest.raises(ValueError):
        embed_lower(g2 @ g1, small, big)
    # the restriction of the big model lifts multiplicatively
    sub = BabyFock(big.params.sub(2))
    h1, h2 = (sub.apply_gamma(i, sub.identity()) for i in (1, 2))
    lifted = embed_lower(h2, sub, big) @ embed_lower(h1, sub, big)
    assert np.max(np.abs(embed_lower(h2 @ h1, sub, big) - lifted)) <= 1e-12


@pytest.mark.parametrize("n,mu", [(3, (1.2, 2.0, 1.0)), (4, (1.5, 1.1, 2.4, 1.0))])
def test_defining_residual_stack_matches_per_word(n, mu):
    model = BabyFock(ModelParams.make(n, mu, sign_seed=70 + n))
    D = get_density(model)

    def per_word(X):
        return max(abs(np.trace(X @ monomial_matrix(model, word_of(model, w))) - (w == 0))
                   for w in range(model.dim))

    # the table's traces against one dense trace per word
    assert abs(defining_property_residual(model, D) - per_word(D)) <= 1e-14
    # zero diagonal, so the unit word does not dominate the maximum
    rng = np.random.default_rng(n)
    E = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
    np.fill_diagonal(E, 0.0)
    bad = D + 1e-8 * E
    tabled, dense = defining_property_residual(model, bad), per_word(bad)
    assert tabled > 1e-10 and dense > 1e-10
    assert abs(tabled - dense) <= 1e-12 * dense


@pytest.fixture(scope="module")
def m5():
    return BabyFock(ModelParams.make(5, (1.0, 1.5, 2.0, 2.5, 3.0), sign_seed=5))


def test_density_solve_agreement_n5(m5):
    closed = get_density(m5)
    solved = reconstruct(m5, density_solve(m5))
    assert np.linalg.norm(solved - closed) <= 1e-9 * np.linalg.norm(closed)


def test_defining_residual_all_words_n5(m5):
    D = get_density(m5)
    assert defining_property_residual(m5, D) <= 1e-10
    rng = np.random.default_rng(5)
    E = rng.standard_normal(D.shape) + 1j * rng.standard_normal(D.shape)
    np.fill_diagonal(E, 0.0)
    assert defining_property_residual(m5, D + 1e-8 * E) > 1e-10
