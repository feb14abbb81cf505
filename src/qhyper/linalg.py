"""Schatten norms, and the eps**2 coefficient of ||(1 + eps g) d||_p^p.

Schatten norms come from the SVD.  The expansion coefficient is taken
three ways: in closed form, through the first and second derivatives of
x -> x**(p/2), and by Richardson-extrapolated finite differences.  The
derivatives are taken at a diagonal base point x = diag(w), w > 0, where
each is the perturbation weighted entrywise by divided differences of
x**(p/2) on w.  Divided differences switch from the difference quotient
to the analytic limit when the relative gap drops below
``CONFLUENT_RELGAP``; the quotient is catastrophically cancellative for
near-equal arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CONFLUENT_RELGAP", "singular_values", "schatten_norm", "schatten_norm_from_sv",
    "PowerDividedDifferences", "frechet1", "frechet2", "c_coeff",
    "expansion_second_order", "expansion_via_frechet", "richardson_second_coeff",
]

CONFLUENT_RELGAP = 1e-7
_TINY = 1e-300


def singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values, descending, from the SVD.

    Taking them from the SVD rather than the spectrum of A*A keeps small
    singular values accurate to roundoff relative to themselves instead
    of to the largest one (A*A squares the condition number).
    """
    return np.linalg.svd(np.asarray(A), compute_uv=False)


def schatten_norm(A: np.ndarray, p: float):
    """(sum of sigma_k**p)**(1/p) for p >= 1.

    A single (m, k) matrix gives a float; a stack (..., m, k) gives an
    array of the leading shape.  A zero matrix has norm 0.
    """
    return schatten_norm_from_sv(singular_values(A), p)


def schatten_norm_from_sv(s: np.ndarray, p: float):
    """The p-norm over the last axis of descending singular values s."""
    if p < 1:
        raise ValueError(f"Schatten norm needs p >= 1, got {p}")
    # factor out the largest singular value to avoid overflow for large p;
    # the floor keeps a zero matrix at norm 0
    top = np.maximum(s[..., :1], _TINY)
    norms = top[..., 0] * np.sum((s / top) ** p, axis=-1) ** (1.0 / p)
    return float(norms) if norms.ndim == 0 else norms


# ============================================================================
# divided differences of f(x) = x**(p/2)
# ============================================================================


class PowerDividedDifferences:
    """First and second divided differences of f(x) = x**(p/2).

    Vectorized over numpy arrays; confluent (near-equal) argument
    patterns fall back to the analytic limit formulas.
    """

    def __init__(self, p: float):
        self.half = 0.5 * float(p)

    def f(self, a):
        return a ** self.half

    def df(self, a):
        return self.half * a ** (self.half - 1.0)

    def d2f(self, a):
        return self.half * (self.half - 1.0) * a ** (self.half - 2.0)

    @staticmethod
    def _gap(a, b):
        return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), _TINY)

    def f1(self, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        near = self._gap(a, b) <= CONFLUENT_RELGAP
        denom = np.where(near, 1.0, a - b)
        quot = (self.f(a) - self.f(b)) / denom
        return np.where(near, self.df(0.5 * (a + b)), quot)

    def f2(self, a, b, c):
        a = np.asarray(a, dtype=np.float64)
        b, c = np.asarray(b, dtype=np.float64), np.asarray(c, dtype=np.float64)
        a, b, c = np.broadcast_arrays(a, b, c)
        near_ab = self._gap(a, b) <= CONFLUENT_RELGAP
        denom = np.where(near_ab, 1.0, a - b)
        quot = (self.f1(a, c) - self.f1(b, c)) / denom
        # a ~ b: differentiate the first slot of f1(., c) at the midpoint
        ab = 0.5 * (a + b)
        near_abc = self._gap(ab, c) <= CONFLUENT_RELGAP
        dd = np.where(near_abc, 1.0, ab - c)
        partial = (self.df(ab) * dd - (self.f(ab) - self.f(c))) / dd ** 2
        lim = np.where(near_abc, 0.5 * self.d2f((ab + c) / 2.0), partial)
        return np.where(near_ab, lim, quot)


def _positive(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or not np.all(w > 0.0):
        raise ValueError("the base point must be a vector of positive entries")
    return w


def frechet1(w: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """Derivative of x -> x**(p/2) at x = diag(w), w > 0, applied to h."""
    w = _positive(w)
    return PowerDividedDifferences(p).f1(w[:, None], w[None, :]) * h


def frechet2(w: np.ndarray, h: np.ndarray, p: float) -> np.ndarray:
    """Second derivative of x -> x**(p/2) at x = diag(w) applied to (h, h).

    Returns 2 * sum_t f2(w_s, w_t, w_u) h_st h_tu.
    """
    w = _positive(w)
    t2 = PowerDividedDifferences(p).f2(w[:, None, None], w[None, :, None], w[None, None, :])
    return 2.0 * np.einsum("stu,st,tu->su", t2, h, h, optimize=True)


# ============================================================================
# the eps**2 expansion coefficient of || (1 + eps g) d ||_p^p
# ============================================================================


def c_coeff(p: float, lam: float) -> float:
    """(lam**p - 1)/((lam**2 - 1)(1 - lam**-2)) - p lam**2 / (2 (lam**2 - 1)).

    Written over the common denominator in s = ln lam, where each term of
    (expm1(p s) - (p/2) expm1(2 s)) / (expm1(2 s) (-expm1(-2 s))) is
    accurate to roundoff: the two O(1/s) terms of the displayed form cancel
    to an O(1) value as lam -> 1.  The numerator still cancels to O(s**2),
    so the relative error grows like 1e-16 / s.
    """
    if p <= 2:
        raise ValueError(f"expansion coefficient needs p > 2, got {p}")
    if lam <= 0 or lam == 1.0:
        raise ValueError(f"lam must be positive and != 1, got {lam}")
    s = np.log(lam)
    return float((np.expm1(p * s) - 0.5 * p * np.expm1(2.0 * s))
                 / (np.expm1(2.0 * s) * -np.expm1(-2.0 * s)))


def _check_modular_pair(d: np.ndarray, g: np.ndarray, lam: float):
    resid = np.linalg.norm(d[:, None] * g - lam * (g * d[None, :]))
    scale = max(np.linalg.norm(d) * np.linalg.norm(g), _TINY)
    if resid > 1e-8 * scale:
        raise ValueError(f"d g = lam g d violated: residual {resid:.3e} vs scale {scale:.3e}")


def expansion_second_order(d: np.ndarray, g: np.ndarray, p: float, lam: float) -> float:
    """Closed-form eps**2 coefficient of ||(1 + eps g) diag(d)||_p^p.

    Requires d > 0 and diag(d) g = lam g diag(d) with lam > 1.
    """
    if lam <= 1.0:
        raise ValueError(f"lam must be > 1, got {lam}")
    d, g = _positive(d), np.asarray(g)
    _check_modular_pair(d, g, lam)
    dp, g2 = d ** p, np.abs(g) ** 2
    t_gg = float(dp @ g2.sum(axis=0))            # tr(d**p g* g)
    t_gg_star = float(dp @ g2.sum(axis=1))       # tr(d**p g g*)
    return (p / 2.0 + c_coeff(p, lam)) * t_gg + c_coeff(p, 1.0 / lam) * t_gg_star


def expansion_via_frechet(d: np.ndarray, g: np.ndarray, p: float) -> float:
    """Same eps**2 coefficient through the derivative machinery.

    Expands tr (d**2 + eps d(g+g*)d + eps**2 d g*g d)**(p/2), d = diag(d);
    the second-order term combines the first derivative applied to the
    eps**2 part with half the second derivative applied to the eps part.
    """
    d, g = _positive(d), np.asarray(g)
    dd = np.outer(d, d)
    h1 = dd * (g + g.conj().T)
    h2 = dd * (g.conj().T @ g)
    first = np.trace(frechet1(d * d, h2, p))
    second = 0.5 * np.trace(frechet2(d * d, h1, p))
    return float(np.real(first + second))


def richardson_second_coeff(fn, h: float) -> float:
    """eps**2 Taylor coefficient of fn at 0 by extrapolated central differences.

    Each estimate (fn(e) + fn(-e) - 2 fn(0)) / (2 e**2) has an error
    series in e**2; Richardson extrapolation over the halved steps
    (h, h/2, h/4) removes the leading terms.
    """
    f0 = fn(0.0)
    est = [(fn(e) + fn(-e) - 2.0 * f0) / (2.0 * e * e) for e in (h, h / 2.0, h / 4.0)]
    for w in (4.0, 16.0):       # halving the step divides the level's leading error by w
        est = [(w * b - a) / (w - 1.0) for a, b in zip(est, est[1:])]
    return float(est[0])
