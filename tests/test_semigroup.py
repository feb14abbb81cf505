"""Semigroup action and positivity certificates."""

import numpy as np
import pytest

from gns_oracle import (apply_OU, apply_Ti, apply_y, cp_randomized_check, identity,
                        l2_pythagoras_residual, random_element, vacuum_state)
from qhyper.babyfock import BabyFock
from qhyper.semigroup import choi_identity_residual, choi_matrix
from qhyper.signs import ModelParams


@pytest.fixture(scope="module")
def m3():
    return BabyFock(ModelParams.make(3, (1.2, 1.6, 2.0), sign_seed=4))


def test_ou_action(m3):
    rng = np.random.default_rng(1)
    x = random_element(m3, rng)
    assert np.allclose(apply_OU(m3, x, 0.0), x, atol=1e-12)
    y3 = apply_y(m3, 3, identity(m3))
    assert np.linalg.norm(apply_OU(m3, y3, 0.7) - np.exp(-1.4) * y3) < 1e-12
    # semigroup law
    a = apply_OU(m3, apply_OU(m3, x, 0.3), 0.5)
    b = apply_OU(m3, x, 0.8)
    assert np.linalg.norm(a - b) < 1e-10 * np.linalg.norm(b)
    with pytest.raises(ValueError):
        apply_OU(m3, x, -0.1)


def test_factor_composition(m3):
    rng = np.random.default_rng(2)
    x = random_element(m3, rng)
    z = x
    for i in (1, 2, 3):
        z = apply_Ti(m3, z, i, 0.45)
    ou = apply_OU(m3, x, 0.45)
    assert np.linalg.norm(z - ou) < 1e-10 * np.linalg.norm(ou)


def test_ti_state_preserving(m3):
    rng = np.random.default_rng(3)
    x = random_element(m3, rng)
    for i in (1, 2, 3):
        assert abs(vacuum_state(apply_Ti(m3, x, i, 0.8))
                   - vacuum_state(x)) < 1e-10


def test_choi_t_zero_identity_channel():
    c = choi_matrix(0.0, 2.0)
    assert abs(c[0, 0] - 1) < 1e-14 and abs(c[3, 3] - 1) < 1e-14
    assert abs(c[1, 1]) < 1e-14 and abs(c[2, 2]) < 1e-14
    w = np.linalg.eigvalsh(c)
    assert w.min() >= -1e-14
    assert np.sum(w > 1e-12) == 1        # rank deficient at t = 0


def _choi_per_point(t: float, mu: float):
    """The per-point Choi matrix and identity residual in Python-float t."""
    lam = 1.0 / (1.0 + mu ** 4)
    e = np.exp(-2.0 * t)
    c = np.zeros((4, 4))
    c[0, 0] = lam * (1.0 + e * mu ** 4)
    c[1, 1] = lam * (1.0 - e)
    c[2, 2] = (1.0 - lam) * (1.0 - e)
    c[3, 3] = (1.0 - lam) * (1.0 + e * mu ** -4)
    c[0, 3] = c[3, 0] = np.exp(-t)
    lhs = lam * (1.0 - lam) * (1.0 + e * mu ** 4) * (1.0 + e * mu ** -4) - e
    rhs = lam * (1.0 - lam) * (1.0 - e) ** 2
    return c, float(abs(lhs - rhs))


def test_choi_columns_match_per_point_calls():
    # the CLI's default grid, bit for bit
    ts = [0.0 + k * 0.01 for k in range(501)]
    times = np.array(ts)
    for mu in [1.0 + k * 0.1 for k in range(31)]:
        mats, resids = choi_matrix(times, mu), choi_identity_residual(times, mu)
        assert mats.shape == (len(ts), 4, 4) and resids.shape == (len(ts),)
        for t, mat, resid in zip(ts, mats, resids.tolist()):
            want_mat, want_resid = _choi_per_point(t, mu)
            assert np.array_equal(mat, want_mat) and resid == want_resid
            assert np.array_equal(choi_matrix(t, mu), want_mat)
            assert choi_identity_residual(t, mu) == want_resid


def test_choi_rejects_negative_time_in_array():
    with pytest.raises(ValueError):
        choi_matrix(np.array([0.0, -1e-3]), 2.0)


@pytest.mark.parametrize("mu", [1.0, 1.5, 2.5, 4.0])
def test_choi_grid(mu):
    for t in np.arange(0.0, 5.0001, 0.05):
        assert choi_identity_residual(t, mu) <= 1e-12
        assert np.linalg.eigvalsh(choi_matrix(t, mu)).min() >= -1e-12


def test_choi_long_time_limit():
    for mu in (1.0, 2.0, 3.5):
        lam = 1.0 / (1.0 + mu ** 4)
        c = choi_matrix(50.0, mu)
        assert np.allclose(np.diag(c), [lam, lam, 1 - lam, 1 - lam], atol=1e-12)
        assert np.linalg.eigvalsh(c).min() >= -1e-12


def test_cp_randomized(m3):
    rep = cp_randomized_check(m3, i=2, t=0.3, samples=30, seed=9, k=2)
    assert rep["min_eigenvalue"] >= -1e-9
    assert rep["state_residual"] < 1e-10
    rep0 = cp_randomized_check(m3, i=1, t=0.0, samples=5, seed=1, k=3)
    assert rep0["min_eigenvalue"] >= -1e-9


def test_cp_randomized_two_index_sweep():
    model = BabyFock(ModelParams.make(2, (1.0, 2.0), sign_seed=6))
    rep = cp_randomized_check(model, i=2, t=0.3, samples=200, seed=3, k=2)
    assert rep["min_eigenvalue"] >= -1e-9
    assert rep["state_residual"] < 1e-10


def test_four_term_pythagoras(m3):
    from qhyper.babyfock import get_model

    small = get_model(m3.params.sub(2))
    rng = np.random.default_rng(5)
    for t in (0.0, 0.4, 1.3):
        parts = [random_element(small, rng) for _ in range(4)]
        assert l2_pythagoras_residual(m3, *parts, t) < 1e-9
