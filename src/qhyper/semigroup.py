"""The twisted Ornstein-Uhlenbeck semigroup and its positivity certificates.

P_t acts diagonally on the monomial basis: a word picks up exp(-t * degree)
where the unit letter counts 0, g and g* count 1, and y counts 2.  The
same map is diagonal on vacuum vectors with weight exp(-t |A|); both
routes are computed and cross-checked.  The per-index factors T_i scale
only the letter at index i, and their complete positivity reduces to a
4x4 Choi matrix in closed form.
"""

from __future__ import annotations

import numpy as np

from .babyfock import LETTER_DEGREE, BabyFock, get_model
from .state import embed_lower

__all__ = [
    "apply_OU", "apply_OU_coeffs", "apply_Ti", "choi_matrix",
    "choi_identity_residual", "is_cp", "cp_randomized_check", "l2_pythagoras_residual",
]


def apply_OU_coeffs(model: BabyFock, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Monomial coefficients of P_t applied to the element with these coefficients."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return np.asarray(coeffs, dtype=np.complex128) * np.exp(-t * model.monomial_degrees)


def apply_OU(model: BabyFock, X: np.ndarray, t: float) -> np.ndarray:
    """P_t(X) through the monomial expansion, cross-checked on vacuum vectors."""
    coeffs = apply_OU_coeffs(model, model.expand(X), t)
    out = model.reconstruct(coeffs)
    direct = np.exp(-t * np.bitwise_count(np.arange(model.dim))) * np.asarray(X)[:, 0]
    scale = max(float(np.linalg.norm(direct)), 1e-300)
    if np.linalg.norm(out[:, 0] - direct) > 1e-10 * scale:
        raise AssertionError("monomial and vacuum-vector routes disagree")
    return out


def apply_Ti(model: BabyFock, X: np.ndarray, i: int, t: float) -> np.ndarray:
    """The per-index factor: scales the letter at index i only."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if not (1 <= i <= model.n):
        raise ValueError(f"index {i} out of range")
    coeffs = model.expand(X)
    deg = (np.arange(model.dim) >> (2 * (i - 1))) & 3
    deg = np.asarray(LETTER_DEGREE)[deg]
    return model.reconstruct(coeffs * np.exp(-t * deg))


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


def is_cp(t: float, mu: float, tol: float = 1e-12) -> bool:
    """Complete positivity of the factor channel: Choi matrix PSD."""
    return bool(np.min(np.linalg.eigvalsh(choi_matrix(t, mu))) >= -tol)


def cp_randomized_check(model: BabyFock, i: int, t: float, samples: int,
                        seed: int, k: int = 2) -> dict:
    """Randomized witness search for positivity of T_i tensor id on M_k blocks.

    Draws PSD matrices G G* with algebra-valued blocks, pushes them
    through T_i blockwise, and records the most negative eigenvalue seen
    plus the worst state-preservation error tau(T_i X) vs tau(X).
    """
    if not (1 <= k <= 4):
        raise ValueError("block size k must be in 1..4")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    dim = model.dim
    min_eig = np.inf
    state_resid = 0.0
    for _ in range(samples):
        blocks = np.empty((k, k, dim, dim), dtype=np.complex128)
        for a in range(k):
            for b in range(k):
                blocks[a, b] = model.random_element(rng, scale=1.0 / np.sqrt(dim))
        G = blocks.transpose(0, 2, 1, 3).reshape(k * dim, k * dim)
        Z = G @ G.conj().T
        scale = float(np.linalg.norm(Z))
        out = np.empty_like(Z)
        for a in range(k):
            for b in range(k):
                blk = Z[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim]
                out[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = \
                    apply_Ti(model, blk, i, t)
                if a == b:
                    sr = abs(out[a * dim, b * dim] - blk[0, 0])
                    state_resid = max(state_resid, float(sr))
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(out)) / max(scale, 1e-300)))
    return {"min_eigenvalue": min_eig, "state_residual": state_resid}


def l2_pythagoras_residual(model: BabyFock, a, b, c, d, t: float) -> float:
    """Residual of the four-term L2 identity for X = a + g_n b + g*_n c + y_n d.

    a, b, c, d are elements of the model on indices 1..n-1; the right
    side combines their P_t images in that smaller model with weights
    1, mu^-2 e^{-2t}, mu^2 e^{-2t}, e^{-4t}.
    """
    small = get_model(model.params.sub(model.n - 1))
    n = model.n
    mu = model.mu[n - 1]
    parts = [embed_lower(x, small, model) for x in (a, b, c, d)]
    X = parts[0] + model.apply_gamma(n, parts[1]) \
        + model.apply_gamma_star(n, parts[2]) + model.apply_y(n, parts[3])
    lhs = np.linalg.norm(apply_OU(model, X, t)[:, 0]) ** 2
    weights = (1.0, mu ** -2 * np.exp(-2 * t), mu ** 2 * np.exp(-2 * t), np.exp(-4 * t))
    rhs = sum(w * np.linalg.norm(apply_OU(small, np.asarray(x), t)[:, 0]) ** 2
              for w, x in zip(weights, (a, b, c, d)))
    return float(abs(lhs - rhs) / max(lhs, 1e-300))
