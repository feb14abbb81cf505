"""Convexity margins, contraction thresholds, search, structural identities."""

import numpy as np
import pytest

import gns_oracle
from gns_oracle import (apply_gamma, apply_gamma_star, apply_y, contraction_ratio,
                        dual_contraction_ratio, eigh_power, embed_lower, expand, haagerup_norm,
                        identity, random_element, reconstruct)
from paper_reference import (asym_convexity_check, bcl_check, decomposition_identity_check,
                             disjoint_support_check, dual_convexity_check,
                             gamma_lower_bound_check)
from qhyper import hyperc, state
from qhyper.babyfock import BabyFock, get_model
from qhyper.hyperc import (C_of_mu, RatioEvaluator, convexity_margins, necessary_time_exact,
                           sufficient_time, violation_search, witness_dual_to_primal,
                           witness_primal_to_dual)
from qhyper.linalg import schatten_norm
from qhyper.signs import ModelParams, SignTable
from qhyper.state import get_density


def _rand(rng, m):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


@pytest.fixture(scope="module")
def m2():
    return get_model(ModelParams.make(2, (1.0, 1.5), sign_seed=1))


def test_margin_trivial_cases():
    rng = np.random.default_rng(0)
    a = _rand(rng, 5)
    assert abs(bcl_check(a, np.zeros_like(a), 1.5)) < 1e-12
    scale = np.linalg.norm(a) ** 2
    assert abs(bcl_check(a, _rand(rng, 5), 2.0)) < 1e-10 * scale  # parallelogram
    assert abs(dual_convexity_check(a, np.zeros_like(a), 3.0, 2.0)) < 1e-12


def test_margin_random_sweep():
    rng = np.random.default_rng(1)
    for k in range(200):
        m = 2 + k % 15
        a, b = _rand(rng, m), _rand(rng, m)
        scale = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2
        p = (1.1, 1.5, 1.9, 2.0)[k % 4]
        mu = (1.0, 1.5, 2.0, 3.0)[(k // 4) % 4]
        q = (2.0, 3.0, 4.0)[k % 3]
        assert bcl_check(a, b, p) >= -1e-10 * scale
        assert asym_convexity_check(a, b, p, mu) >= -1e-10 * scale
        assert dual_convexity_check(a, b, q, mu) >= -1e-10 * scale


def test_stacked_margins_match_per_sample_checks():
    # one stacked SVD of the seven distinct matrices against the fourteen
    # SVDs of the three per-sample functions
    from qhyper.linalg import schatten_norm
    rng = np.random.default_rng(12)
    for m in range(2, 17):
        a = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
        b = rng.standard_normal((5, m, m)) + 1j * rng.standard_normal((5, m, m))
        mu = rng.choice([1.0, 1.3, 2.0, 2.7, 3.5], size=5)
        scale = np.array([schatten_norm(x, 2) ** 2 + schatten_norm(y, 2) ** 2
                          for x, y in zip(a, b)])
        for p in (1.1, 4.0 / 3.0, 1.7, 2.0):
            for q in (2.0, 3.0, 4.0):
                got = convexity_margins(a, b, p, mu, q)
                want = [[bcl_check(x, y, p), asym_convexity_check(x, y, p, w),
                         dual_convexity_check(x, y, q, w)]
                        for x, y, w in zip(a, b, mu)]
                np.testing.assert_allclose(np.transpose(got),
                                           np.array(want) / scale[:, None],
                                           rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_means_match_their_log_form_without_overflow():
    # (lam x**r + (1 - lam) y**r)**(2/r) against exp((2/r) logaddexp(...)): norms from 1e-150
    # to 1e154 (about mu**2 at the largest weight), exponents up to convexity's --q cap
    x, y = np.meshgrid(np.geomspace(1e-150, 1e154, 13), np.geomspace(1e-150, 1e154, 11))
    for lam in (1.0 / (1.0 + 8.18e76 ** 4), 1.0 / 17.0, 0.5, 0.9):
        for r in (1.0 + 1e-9, 1.5, 2.0, 253.0, 1e15):
            want = np.exp(2.0 / r * np.logaddexp(np.log(lam) + r * np.log(x),
                                                 np.log1p(-lam) + r * np.log(y)))
            np.testing.assert_allclose(hyperc._power_mean_sq(lam, x, y, r), want, rtol=1e-12)


@pytest.mark.parametrize("p,mu,q,message", [(2.5, 1.0, 2.0, "need 1 < p <= 2"),
                                            (1.0, 1.0, 2.0, "need 1 < p <= 2"),
                                            (1.5, 0.5, 2.0, "mu must be >= 1"),
                                            (1.5, 1.0, 1.5, "need q >= 2")])
def test_stacked_margins_reject_bad_parameters(p, mu, q, message):
    a = np.ones((2, 3, 3), dtype=np.complex128)
    with pytest.raises(ValueError, match=message):
        convexity_margins(a, 2.0 * a, p, mu, q)


def test_asym_reduces_to_slack_bcl_at_mu_one():
    rng = np.random.default_rng(2)
    a, b = _rand(rng, 6), _rand(rng, 6)
    p = 1.6
    from qhyper.linalg import schatten_norm
    lhs = (0.5 * schatten_norm(a + b, p) ** p
           + 0.5 * schatten_norm(a - b, p) ** p) ** (2.0 / p)
    expected = lhs - schatten_norm(a, p) ** 2 \
        - (1.0 / 3.0) * (p - 1.0) * schatten_norm(b, p) ** 2
    assert abs(asym_convexity_check(a, b, p, 1.0) - expected) < 1e-10


def test_dual_sharp_equality_at_q_two():
    rng = np.random.default_rng(3)
    x, y = _rand(rng, 7), _rand(rng, 7)
    mu = 1.8
    margin = dual_convexity_check(x, y, 2.0, mu, coeff=mu ** -4)
    scale = np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2
    assert abs(margin) < 1e-10 * scale


def test_constant_branches_meet_at_boundary():
    for mu in (1.0, 1.7, 3.0):
        lo = C_of_mu(4.0 / 3.0, mu)
        hi = C_of_mu(4.0 / 3.0 + 1e-12, mu)
        assert abs(lo - hi) < 1e-10
        assert abs(lo - mu ** -4 / 3.0) < 1e-14
    with pytest.raises(ValueError):
        C_of_mu(1.0, 2.0)


def test_sufficient_time_formula():
    # mu = 1, p = 1.5: branch values 2**(1-4/3)/2 and sqrt(1/6)
    got = sufficient_time(1.5, 1.0)
    assert abs(got - min(2.0 ** (1 - 4 / 3) * 0.5, np.sqrt(1 / 6))) < 1e-15
    # mu = 2, p = 1.5: min{17**(-1/3) * 0.5, sqrt(C) * sqrt(0.5)}
    a = 17.0 ** (-1.0 / 3.0) * 0.5
    b = np.sqrt((1.0 / 3.0) * 2.0 ** (8 - 16 / 1.5)) * np.sqrt(0.5)
    assert abs(sufficient_time(1.5, 2.0) - min(a, b)) < 1e-15
    # continuity toward p = 2
    assert abs(sufficient_time(1.9999, 1.0)
               - min(2.0 ** (1 - 2 / 1.9999) * 0.9999, np.sqrt(0.9999 / 3.0))) < 1e-12
    # vector: the minimum over indices
    assert sufficient_time(1.5, (1.0, 2.0)) == min(sufficient_time(1.5, 1.0),
                                                   sufficient_time(1.5, 2.0))


def test_necessary_time_values():
    t = necessary_time_exact(2, 1.0)
    assert t.exact == 0.5 and t.paper_display == 0.5 and not t.differs
    t = necessary_time_exact(2, np.sqrt(2.0))
    assert abs(t.exact - 1.0 / 3.0) < 1e-12
    assert abs(t.paper_display - 0.25) < 1e-12
    assert t.differs
    t = necessary_time_exact(3, 1.0)
    assert abs(t.exact - 1.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        necessary_time_exact(1, 1.5)


@pytest.mark.parametrize("pp", [4, 6, 8])
def test_threshold_exponent_is_sharp(pp):
    # both exp(-2t) thresholds scale as mu**(4 - 8/p), the exponent of the paper's bound
    # exp(-2t) <= C mu**(4 - 8/p) (p - 1): over three decades of mu their ratios to it
    # stay in fixed bounds
    p = pp / (pp - 1.0)
    mus = np.logspace(0.0, 3.0, 13)
    unit = mus ** (4.0 - 8.0 / p) * (p - 1.0)
    suf = np.array([sufficient_time(p, mu) for mu in mus])
    nec = np.array([necessary_time_exact(pp // 2, mu).exact for mu in mus])
    # C read off the sufficient side: suf = C unit with C in [2**(1 - 2/p), 1]
    c_suf = suf / unit
    assert np.all(c_suf >= 2.0 ** (1.0 - 2.0 / p) * (1 - 1e-12)) and np.all(c_suf <= 1 + 1e-12)
    scaled = nec * mus ** (8.0 / p - 4.0)
    assert np.all(scaled >= 2.0 / pp * (1 - 1e-12)) and np.all(scaled <= 1 + 1e-12)
    # the gap between the thresholds grows with mu toward p' - 1 and never passes it
    gap = nec / suf
    assert np.all(np.diff(gap) >= 0.0) and np.all(gap <= pp - 1.0)
    assert gap[-1] >= 0.99 * (pp - 1.0)


def test_contraction_ratio_basics(m2):
    ident = identity(m2)
    assert abs(contraction_ratio(m2, ident, 0.9, 1.5) - 1.0) < 1e-12
    assert abs(dual_contraction_ratio(m2, ident, 0.9, 3.0) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    x = random_element(m2, rng)
    assert contraction_ratio(m2, x, 0.0, 2.0) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        contraction_ratio(m2, np.zeros_like(ident), 0.5, 1.5)


def test_contraction_ratios_are_python_floats(m2):
    x = random_element(m2, np.random.default_rng(6))
    assert type(contraction_ratio(m2, x, 0.3, 1.5)) is float
    assert type(dual_contraction_ratio(m2, x, 0.3, 4.0)) is float


def test_ratio_evaluator_matches_direct(m2):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(m2.dim) + 1j * rng.standard_normal(m2.dim)
    x = reconstruct(m2, c)
    ev = RatioEvaluator(m2, 0.4, 1.5, "primal")
    assert abs(ev.ratio(c) - contraction_ratio(m2, x, 0.4, 1.5)) < 1e-12
    evd = RatioEvaluator(m2, 0.4, 4.0, "dual")
    assert abs(evd.ratio(c) - dual_contraction_ratio(m2, x, 0.4, 4.0)) < 1e-12


def test_canonical_witness_inside_region(m2):
    p = 1.5
    t = -0.5 * np.log(sufficient_time(p, m2.params.mu))
    x = identity(m2) + apply_gamma(m2, 1, identity(m2))
    assert contraction_ratio(m2, x, t, p) < 1.0
    # flat one-index case: exp(-2t) = 0.3 sits below the 0.397 threshold
    flat = get_model(ModelParams.make(1, 1.0, SignTable.all_anticommuting(1)))
    xf = identity(flat) + apply_gamma(flat, 1, identity(flat))
    assert contraction_ratio(flat, xf, -0.5 * np.log(0.3), 1.5) < 1.0


def test_search_no_violation_inside_region(m2):
    p = 1.5
    t = -0.5 * np.log(sufficient_time(p, m2.params.mu))
    wit = violation_search(m2, t, p, restarts=120, seed=5)
    assert wit.ratio <= 1.0 + 1e-9
    # witness invariant: the stored ratio reproduces from its coefficients
    recomputed = contraction_ratio(m2, reconstruct(m2, wit.coeffs), t, p)
    assert abs(recomputed - wit.ratio) <= 1e-8 * wit.ratio


def test_search_finds_dual_violation_past_threshold():
    params = ModelParams.make(1, 2.0, SignTable.all_anticommuting(1))
    model = get_model(params)
    thr = necessary_time_exact(2, 2.0).exact
    t = -0.5 * np.log(1.05 * thr)
    wit = violation_search(model, t, 4.0, "dual", restarts=40, seed=3)
    assert wit.ratio > 1.0
    # the canonical small witness alone already crosses
    x = identity(model) + 1e-2 * apply_gamma(model, 1, identity(model))
    assert dual_contraction_ratio(model, x, t, 4.0) > 1.0


def test_search_long_time_limit(m2):
    wit = violation_search(m2, 8.0, 1.5, restarts=60, seed=2)
    assert wit.ratio <= 1.0 + 1e-9


def test_search_n5_no_violation_at_proof_time():
    # criterion 6's settings at n = 5, beyond its n <= 3 grid: the
    # sufficient time depends on mu, not on n
    params = ModelParams.make(5, (1.0, 1.75, 2.5, 1.5, 2.0), sign_seed=5)
    p = 1.25
    t = -0.5 * np.log(sufficient_time(p, params.mu))
    wit = violation_search(get_model(params), t, p, "primal", restarts=1000, seed=2026)
    assert 1.0 - 1e-12 <= wit.ratio <= 1.0 + 1e-9


def test_search_rejects_zero_restarts(m2):
    with pytest.raises(ValueError, match="restarts"):
        violation_search(m2, 0.5, 1.5, restarts=0)

def test_duality_consistency_n1():
    params = ModelParams.make(1, 1.6, SignTable.all_anticommuting(1))
    model = get_model(params)
    p, t = 1.4, 0.35
    pprime = p / (p - 1.0)
    evp = RatioEvaluator(model, t, p, "primal")
    evd = RatioEvaluator(model, t, pprime, "dual")
    wp = violation_search(model, t, p, "primal", restarts=80, seed=11)
    wd = violation_search(model, t, pprime, "dual", restarts=80, seed=12)
    cp, cd = wp.coeffs, wd.coeffs
    best_p, best_d = wp.ratio, wd.ratio
    for _ in range(300):
        cd2 = witness_primal_to_dual(model, cp, t)
        rd = evd.ratio(cd2)
        if rd > best_d:
            best_d, cd = rd, cd2
        cp2 = witness_dual_to_primal(model, cd, t, p)
        rp = evp.ratio(cp2)
        if rp > best_p:
            best_p, cp = rp, cp2
    assert abs(best_p - best_d) <= 1e-6 * best_p


@pytest.fixture(scope="module")
def m3():
    return get_model(ModelParams.make(3, (1.2, 1.0, 1.7), sign_seed=8))


def _coeffs(rng, dim):
    """Monomial coefficients drawn as ``gns_oracle.random_element`` draws them."""
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_decomposition_identity(m3, p):
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, d = _coeffs(rng, 16), _coeffs(rng, 16)
        rep = decomposition_identity_check(a, d, p, m3)
        assert rep["residual"] <= 1e-9 * rep["scale"]
    # d = 0 reduces to the isometric embedding
    rep = decomposition_identity_check(a, np.zeros_like(a), p, m3)
    assert rep["residual"] <= 1e-9 * rep["scale"]


def test_gamma_lower_bounds(m3):
    rng = np.random.default_rng(14)
    for p in (1.5, 2.0, 2.5):
        for _ in range(5):
            b, c = _coeffs(rng, 16), _coeffs(rng, 16)
            rep = gamma_lower_bound_check(b, c, p, m3)
            assert rep["margin_b"] >= -1e-10 * rep["scale_b"]
            assert rep["margin_c"] >= -1e-10 * rep["scale_c"]
        ident = np.eye(1, 16, dtype=complex)[0]
        rep = gamma_lower_bound_check(ident, ident, p, m3)
        assert abs(rep["margin_b"]) <= 1e-10 * rep["scale_b"]   # equality case
        assert abs(rep["margin_c"]) <= 1e-10 * rep["scale_c"]


def test_disjoint_support(m3):
    rng = np.random.default_rng(15)
    for p in (1.5, 2.0, 3.0):
        b, c = _coeffs(rng, 16), _coeffs(rng, 16)
        rep = disjoint_support_check(b, c, p, m3)
        assert rep["residual"] <= 1e-9 * rep["scale"]
    rep = disjoint_support_check(b, np.zeros_like(c), 1.5, m3)
    assert rep["residual"] <= 1e-12 * rep["scale"]
    with pytest.raises(ValueError):
        disjoint_support_check(np.zeros_like(b), np.zeros_like(c), 1.5, m3)


# The structural checks and the transport in the 4**n GNS model, as the oracle for
# their irrep versions: dense elements lifted by ``embed_lower``, every norm a dense
# ``haagerup_norm``, the transport through density powers.

def _gns_split(model, *coeffs):
    small = get_model(model.params.sub(model.n - 1))
    dense = [reconstruct(small, c) for c in coeffs]
    return (small, model.mu[model.n - 1], dense,
            [embed_lower(x, small, model) for x in dense])


def _gns_decomposition(a, d, p, model):
    small, mu, (a, d), (A, Dd) = _gns_split(model, a, d)
    lam = 1.0 / (1.0 + mu ** 4)
    lhs = haagerup_norm(model, A + apply_y(model, model.n, Dd), p) ** 2
    rhs = (lam * haagerup_norm(small, a + mu ** 2 * d, p) ** p
           + (1.0 - lam) * haagerup_norm(small, a - d / mu ** 2, p) ** p) ** (2.0 / p)
    return lhs, rhs


def _gns_gamma(b, c, p, model):
    small, mu, (b, c), (B, Cc) = _gns_split(model, b, c)
    lam = 1.0 / (1.0 + mu ** 4)
    fac = np.sqrt(mu ** 2 + mu ** -2)
    return (haagerup_norm(model, apply_gamma(model, model.n, B), p),
            lam ** (1.0 / p) * fac * haagerup_norm(small, b, p),
            haagerup_norm(model, apply_gamma_star(model, model.n, Cc), p),
            (1.0 - lam) ** (1.0 / p) * fac * haagerup_norm(small, c, p))


def _gns_disjoint(b, c, p, model):
    _, _, _, (B, Cc) = _gns_split(model, b, c)
    gb, gc = apply_gamma(model, model.n, B), apply_gamma_star(model, model.n, Cc)
    return (haagerup_norm(model, gb + gc, p) ** p,
            haagerup_norm(model, gb, p) ** p + haagerup_norm(model, gc, p) ** p)


def _gns_transport(model, coeffs, t, p):
    pprime = p / (p - 1.0)
    scaled = np.asarray(coeffs) * np.exp(-t * model.monomial_degrees)
    z = reconstruct(model, scaled) @ get_density(model, 1.0 / pprime)
    z /= schatten_norm(z, pprime)
    xi = z @ eigh_power(z.conj().T @ z, (pprime - 2.0) / 2.0)
    out = expand(model, xi @ get_density(model, -1.0 / p))
    return out / np.linalg.norm(out)


SPLIT_MODELS = [ModelParams.make(2, (1.3, 2.0), sign_seed=21),
                ModelParams.make(3, (1.0, 1.75, 2.5), sign_seed=22),
                ModelParams.make(4, (1.5, 1.0, 2.0, 1.25), sign_seed=23)]


def _hoelder_gap(model, coeffs, primal, t, p):
    """Relative gap of |trace(X* Z)| <= ||X||_p ||Z||_p' for X = pi(primal) rho**(1/p)
    and Z = pi(P_t coeffs) rho**(1/p'): zero for a norming partner."""
    pprime = p / (p - 1.0)
    X = RatioEvaluator(model, 0.0, p).matrices(primal)[0]
    Z = RatioEvaluator(model, t, pprime, "dual").matrices(coeffs)[0]
    bound = schatten_norm(X, p) * schatten_norm(Z, pprime)
    return abs(abs(np.vdot(X, Z)) - bound) / bound


@pytest.mark.parametrize("params", SPLIT_MODELS, ids=lambda pr: f"n{pr.n}")
def test_structural_checks_match_gns_formulas(params):
    model = get_model(params)
    rng = np.random.default_rng(600 + model.n)
    for p in (1.5, 2.0, 3.0):
        a, b, c, d = (_coeffs(rng, model.dim // 4) for _ in range(4))
        rep = decomposition_identity_check(a, d, p, model)
        lhs, rhs = _gns_decomposition(a, d, p, model)
        assert abs(rep["lhs"] - lhs) <= 1e-12 * lhs and abs(rep["rhs"] - rhs) <= 1e-12 * rhs
        assert abs(rep["residual"] - abs(lhs - rhs)) <= 1e-12 * rep["scale"]
        rep = gamma_lower_bound_check(b, c, p, model)
        lhs_b, rhs_b, lhs_c, rhs_c = _gns_gamma(b, c, p, model)
        assert abs(rep["scale_b"] - max(lhs_b, rhs_b)) <= 1e-12 * rep["scale_b"]
        assert abs(rep["scale_c"] - max(lhs_c, rhs_c)) <= 1e-12 * rep["scale_c"]
        assert abs(rep["margin_b"] - (lhs_b - rhs_b)) <= 1e-12 * rep["scale_b"]
        assert abs(rep["margin_c"] - (lhs_c - rhs_c)) <= 1e-12 * rep["scale_c"]
        rep = disjoint_support_check(b, c, p, model)
        total, parts = _gns_disjoint(b, c, p, model)
        assert abs(rep["scale"] - max(total, parts)) <= 1e-12 * rep["scale"]
        assert abs(rep["residual"] - abs(total - parts)) <= 1e-12 * rep["scale"]


@pytest.mark.parametrize("params", SPLIT_MODELS, ids=lambda pr: f"n{pr.n}")
def test_transport_matches_gns_formula(params):
    model = get_model(params)
    rng = np.random.default_rng(700 + model.n)
    for p, t in ((1.25, 0.0), (1.5, 0.3), (1.75, 0.8)):
        coeffs = _coeffs(rng, model.dim)
        got = witness_dual_to_primal(model, coeffs, t, p)
        assert np.linalg.norm(got - _gns_transport(model, coeffs, t, p)) <= 1e-12
        assert _hoelder_gap(model, coeffs, got, t, p) <= 1e-12


def test_structural_checks_never_touch_the_4n_model(monkeypatch):
    # a fresh n = 5 model: every norm in the irrep, no density, table or dense element
    model = BabyFock(ModelParams.make(5, (1.0, 1.5, 2.0, 2.5, 3.0), sign_seed=5))

    def forbidden(*args, **kwargs):
        raise AssertionError("4**n density, dense identity or monomial table used")

    for module in (hyperc, state):
        if hasattr(module, "get_density"):
            monkeypatch.setattr(module, "get_density", forbidden)
    for name in ("monomial_table", "_density_entries"):
        monkeypatch.setattr(BabyFock, name, forbidden)
    monkeypatch.setattr(gns_oracle, "identity", forbidden)
    rng = np.random.default_rng(800)
    a, b, c, d = (_coeffs(rng, 256) for _ in range(4))
    rep = decomposition_identity_check(a, d, 1.5, model)
    assert rep["residual"] <= 1e-9 * rep["scale"]
    rep = gamma_lower_bound_check(b, c, 3.0, model)
    assert min(rep["margin_b"] / rep["scale_b"], rep["margin_c"] / rep["scale_c"]) >= -1e-10
    rep = disjoint_support_check(b, c, 2.0, model)
    assert rep["residual"] <= 1e-9 * rep["scale"]
    coeffs = _coeffs(rng, model.dim)
    primal = witness_dual_to_primal(model, coeffs, 0.3, 1.5)
    assert abs(np.linalg.norm(primal) - 1.0) <= 1e-12
    assert _hoelder_gap(model, coeffs, primal, 0.3, 1.5) <= 1e-12


def test_structural_identities_n6():
    # criterion 12's tolerances, one model beyond the reach of the 4**n formulas
    model = get_model(ModelParams.make(6, (1.2, 1.0, 1.7, 1.4, 2.0, 1.1), sign_seed=1106))
    rng = np.random.default_rng(1016)
    for k in range(30):
        p = (1.5, 2.0, 3.0)[k % 3]
        a, b, c, d = (_coeffs(rng, model.dim // 4) for _ in range(4))
        rep = decomposition_identity_check(a, d, p, model)
        assert rep["residual"] <= 1e-9 * rep["scale"]
        rep = gamma_lower_bound_check(b, c, p, model)
        assert rep["margin_b"] >= -1e-10 * rep["scale_b"]
        assert rep["margin_c"] >= -1e-10 * rep["scale_c"]
        rep = disjoint_support_check(b, c, p, model)
        assert rep["residual"] <= 1e-9 * rep["scale"]


@pytest.mark.parametrize("shape", ["dense", "big"])
def test_structural_checks_reject_wrong_coefficients(m3, shape):
    # 4**(n-1) = 16 coefficients expected; a dense 16 x 16 element or 64 coefficients fail
    bad = np.eye(16, dtype=complex) if shape == "dense" else np.ones(m3.dim, dtype=complex)
    good = np.ones(16, dtype=complex)
    for check in (decomposition_identity_check, gamma_lower_bound_check, disjoint_support_check):
        for args in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError):
                check(*args, 1.5, m3)
    with pytest.raises(ValueError):
        witness_dual_to_primal(m3, good if shape == "big" else np.eye(m3.dim), 0.3, 1.5)
