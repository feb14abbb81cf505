"""Complete positivity of the twisted Ornstein-Uhlenbeck semigroup's factors.

P_t acts diagonally on the monomial basis: a word picks up exp(-t * degree),
where the unit letter counts 0, g and g* count 1, and y counts 2
(``BabyFock.monomial_degrees``; ``hyperc.RatioEvaluator`` folds the factor
into the coefficients).  P_t is the product of the per-index factors T_i,
each scaling only the letter at index i, and the complete positivity of T_i
reduces to a 4x4 Choi matrix in closed form: the ``choi`` command takes its
smallest eigenvalue over a stacked grid, beside the closed-form determinant
identity.
"""

from __future__ import annotations

import numpy as np

__all__ = ["choi_matrix", "choi_identity_residual"]


def choi_matrix(t, mu: float) -> np.ndarray:
    """Choi matrix of the two-level factor channel at time t and weight mu.

    A scalar t gives one 4x4 matrix; an array of times gives the stack
    t.shape + (4, 4), entry for entry the scalar call's matrices.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0) or mu < 1:
        raise ValueError("need t >= 0 and mu >= 1")
    lam = 1.0 / (1.0 + mu ** 4)
    e = np.exp(-2.0 * t)
    c = np.zeros(t.shape + (4, 4))
    c[..., 0, 0] = lam * (1.0 + e * mu ** 4)
    c[..., 1, 1] = lam * (1.0 - e)
    c[..., 2, 2] = (1.0 - lam) * (1.0 - e)
    c[..., 3, 3] = (1.0 - lam) * (1.0 + e * mu ** -4)
    c[..., 0, 3] = c[..., 3, 0] = np.exp(-t)
    return c


def choi_identity_residual(t, mu: float):
    """|lam(1-lam)(1+e mu^4)(1+e mu^-4) - e - lam(1-lam)(1-e)^2| with e = exp(-2t).

    A float for a scalar t, an array of t's shape for an array of times.
    """
    lam = 1.0 / (1.0 + mu ** 4)
    e = np.exp(-2.0 * np.asarray(t, dtype=np.float64))
    lhs = lam * (1.0 - lam) * (1.0 + e * mu ** 4) * (1.0 + e * mu ** -4) - e
    rhs = lam * (1.0 - lam) * (1.0 - e) ** 2
    resid = np.abs(lhs - rhs)
    return float(resid) if resid.ndim == 0 else resid

