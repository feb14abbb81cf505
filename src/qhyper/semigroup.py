"""The twisted Ornstein-Uhlenbeck semigroup and its positivity certificates.

P_t acts diagonally on the monomial basis: a word picks up exp(-t * degree)
where the unit letter counts 0, g and g* count 1, and y counts 2
(``apply_OU_coeffs``; only ``hyperc``'s witness transports call it, and no
command reaches them yet).  The per-index factors T_i scale only the letter
at index i, and their complete positivity reduces to a 4x4 Choi matrix in
closed form: the ``choi`` command takes its smallest eigenvalue over a
stacked grid, beside the closed-form determinant identity.  P_t and T_i on
dense 4**n elements, P_t's cross-check on vacuum vectors, the randomized
positivity search and the four-term L2 identity are the tests' oracle, in
``tests/gns_oracle.py``: no command reaches them.
"""

from __future__ import annotations

import numpy as np

from .babyfock import BabyFock

__all__ = ["apply_OU_coeffs", "choi_matrix", "choi_identity_residual"]


def apply_OU_coeffs(model: BabyFock, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Monomial coefficients of P_t applied to the element with these coefficients."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return np.asarray(coeffs, dtype=np.complex128) * np.exp(-t * model.monomial_degrees)


# ============================================================================
# complete positivity
# ============================================================================


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

