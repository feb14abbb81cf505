"""Schatten norms and the derivative machinery at a diagonal base point."""

import numpy as np
import pytest

from gns_oracle import eigh_power
from qhyper.linalg import (PowerDividedDifferences, c_coeff, expansion_second_order,
                           expansion_via_frechet, frechet1, frechet2,
                           richardson_second_coeff, schatten_norm)


def _rand_matrix(rng, m):
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def _rand_hermitian(rng, m):
    a = _rand_matrix(rng, m)
    return (a + a.conj().T) / 2


def test_schatten_norm_values():
    rng = np.random.default_rng(1)
    assert abs(schatten_norm(np.eye(9), 2.5) - 9 ** (1 / 2.5)) < 1e-12
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for p in (1.0, 1.3, 2.0, 5.0):
        got = schatten_norm(np.outer(u, v.conj()), p)
        assert abs(got - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10
    a = _rand_matrix(rng, 20)
    tr = float(np.trace(a.conj().T @ a).real)
    assert abs(schatten_norm(a, 2) ** 2 - tr) < 1e-10 * tr
    with pytest.raises(ValueError):
        schatten_norm(a, 0.5)


@pytest.mark.parametrize("m", [8, 64])
@pytest.mark.parametrize("p", [1.05, 1.25])
def test_schatten_norm_graded_spectrum(m, p):
    # singular values from 1 down to 1e-14: A*A would square the condition
    # number and lose every value below about 1e-8
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(_rand_matrix(rng, m))
    w, _ = np.linalg.qr(_rand_matrix(rng, m))
    s = np.logspace(0.0, -14.0, m)
    a = (u * s) @ w.conj().T
    exact = np.sum(s ** p) ** (1.0 / p)
    assert abs(schatten_norm(a, p) - exact) <= 1e-13 * exact
    # a stack equals the per-matrix calls; a zero matrix in it gives 0
    stack = np.stack([a, np.zeros_like(a), 2.0 * a, a.T])
    norms = schatten_norm(stack, p)
    assert norms.shape == (4,)
    assert norms[1] == 0.0
    assert np.array_equal(norms, [schatten_norm(x, p) for x in stack])
    assert abs(norms[2] - 2.0 * exact) <= 2e-13 * exact
    assert schatten_norm(stack.reshape(2, 2, m, m), p).shape == (2, 2)


def test_divided_difference_confluence():
    dd = PowerDividedDifferences(3.0)
    assert abs(dd.f1(2.0, 2.0) - dd.df(2.0)) < 1e-15
    # continuity across the switching threshold
    for gap in (1e-6, 1e-7, 1e-8):
        a, b = 2.0, 2.0 * (1 + gap)
        assert abs(dd.f1(a, b) - dd.df(2.0)) < 1e-5
    val = dd.f2(1.0, 1.0, 1.0)
    assert abs(val - 0.5 * dd.d2f(1.0)) < 1e-15
    # symmetric in the first two arguments
    assert abs(dd.f2(1.0, 3.0, 2.0) - dd.f2(3.0, 1.0, 2.0)) < 1e-14


@pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
def test_frechet_vs_finite_difference(p):
    # at a non-diagonal x: the engine runs in x's eigenbasis, the differences on x itself
    rng = np.random.default_rng(3)
    b = _rand_matrix(rng, 8)
    x = b @ b.conj().T + 0.5 * np.eye(8)
    h = _rand_hermitian(rng, 8)
    w, v = np.linalg.eigh(x)
    hw = v.conj().T @ h @ v
    eps = 1e-5
    fd1 = (eigh_power(x + eps * h, p / 2) - eigh_power(x - eps * h, p / 2)) / (2 * eps)
    fr1 = v @ frechet1(w, hw, p) @ v.conj().T
    assert np.linalg.norm(fd1 - fr1) < 1e-6 * np.linalg.norm(fr1)
    eps = 1e-4
    fd2 = (eigh_power(x + eps * h, p / 2) - 2 * eigh_power(x, p / 2)
           + eigh_power(x - eps * h, p / 2)) / eps ** 2
    fr2 = v @ frechet2(w, hw, p) @ v.conj().T
    assert np.linalg.norm(fd2 - fr2) < 1e-4 * np.linalg.norm(fr2)
    # trace identity for the first derivative
    lhs = np.trace(fr1)
    rhs = (p / 2) * np.trace(eigh_power(x, p / 2 - 1) @ h)
    assert abs(lhs - rhs) < 1e-8 * abs(lhs)


def test_frechet_identity_base_case():
    rng = np.random.default_rng(4)
    h = _rand_hermitian(rng, 5)
    assert np.linalg.norm(frechet1(np.ones(5), h, 3.0) - 1.5 * h) < 1e-12
    for w in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], np.eye(2)):
        with pytest.raises(ValueError):
            frechet1(np.asarray(w), h[:2, :2], 3.0)


def _modular_pair(rng, sizes, lam):
    """Block pair with diag(d) g = lam g diag(d): d a vector, g a shift block."""
    d = np.concatenate([np.full(sizes[0], lam), np.ones(sizes[1])])
    g = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    g[:sizes[0], sizes[0]:] = _rand_matrix(rng, sizes[0])[:, :sizes[1]]
    return d, g


def test_c_coeff_consistency_with_alternate_form():
    # same quantity written two ways (the derivation pivots on one of them)
    for p in (2.5, 3.0, 5.0):
        for lam in (1.3, 2.0, 4.0):
            direct = c_coeff(p, -np.log(lam))
            alt = p / (2.0 * (lam ** 2 - 1.0)) \
                - (1.0 - lam ** -p) / ((lam ** 2 - 1.0) * (1.0 - lam ** -2))
            assert abs(direct - alt) < 1e-12 * max(1.0, abs(direct))
    with pytest.raises(ValueError):
        c_coeff(2.0, np.log(1.5))
    with pytest.raises(ValueError):
        c_coeff(3.0, 0.0)


@pytest.mark.parametrize("p", [2.001, 3.0, 6.0, 10.0])
def test_c_coeff_near_one(p):
    # c(e**s) = p(p - 2)/8 + p(p**2 - 4) s/24 + O(s**2), against the coefficient's own
    # scale p**2/4 at lam = 1; the displayed form, which cancels two O(1/s) terms, is off
    # by more than 4e-7 p**2 at s = 1e-6
    for s in (1e-6, -1e-6, 1e-7):
        series = p * (p - 2.0) / 8.0 + p * (p * p - 4.0) * s / 24.0
        assert abs(c_coeff(p, s) - series) <= 1e-9 * p * p


@pytest.mark.parametrize("p,lam", [(3.0, 1.5), (4.0, 2.0), (6.0, 1.2)])
def test_expansion_second_order_against_finite_difference(p, lam):
    rng = np.random.default_rng(5)
    d, g = _modular_pair(rng, (3, 3), lam)
    closed = expansion_second_order(d, g, p, np.log(lam))
    frech = expansion_via_frechet(d, g, p)
    fd = richardson_second_coeff(
        lambda e: schatten_norm((np.eye(d.size) + e * g) * d, p) ** p, 1e-2)
    assert abs(closed - fd) < 1e-4 * abs(fd)
    assert abs(frech - fd) < 1e-4 * abs(fd)
    # the displayed first-order term, tr of the derivative applied to d(g+g*)d, vanishes
    # through the commutation
    first = np.trace(frechet1(d * d, np.outer(d, d) * (g + g.conj().T), p))
    assert abs(first) < 1e-8 * abs(closed)
    # zero perturbation
    assert expansion_second_order(d, np.zeros_like(g), p, np.log(lam)) == 0.0


def test_expansion_rejects_bad_pairs():
    rng = np.random.default_rng(6)
    d, g = _modular_pair(rng, (2, 2), 1.7)
    with pytest.raises(ValueError):
        expansion_second_order(d, g, 3.0, 0.0)    # lam = 1 outside hypothesis
    with pytest.raises(ValueError):
        expansion_second_order(d, g, 3.0, np.log(2.5))    # wrong lam breaks commutation
    with pytest.raises(ValueError):
        expansion_second_order(d, _rand_matrix(rng, 4), 3.0, np.log(1.7))
    with pytest.raises(ValueError):
        expansion_second_order(-d, g, 3.0, np.log(1.7))     # d must be positive


def test_richardson_known_series():
    a2 = richardson_second_coeff(lambda e: np.cos(3 * e), 1e-2)
    assert abs(a2 + 4.5) < 1e-9
    a2 = richardson_second_coeff(lambda e: (1 + e) ** 4, 1e-2)
    assert abs(a2 - 6.0) < 1e-8
