"""The 4**n GNS model as the tests' oracle: monomial coefficients <-> dense matrices.

``qhyper`` takes every number a command reports in the closed-form 2**n
dimensional irreducible representation (``BabyFock.irrep``).  This module
reaches the same numbers on the 4**n GNS representation of a ``BabyFock``
model, where an element is a dense 4**n x 4**n matrix on the coefficient
space.  ``reconstruct`` scatters monomial coefficients through the sparse
monomial table (``BabyFock.monomial_table``), ``expand`` reads them back off
the vacuum column, and the Haagerup norm is the Schatten norm of the dense
product x D**(1/p) with the 4**n density ``qhyper.state.get_density``, read
through the module so that a test can patch it.  Every function is a plain
function of a model; no command and no benchmark workload reaches any of
them.
"""

from __future__ import annotations

import numpy as np

from qhyper import state
from qhyper.babyfock import GEN, LETTER_DEGREE, STAR, UNIT, Y, BabyFock, get_model
from qhyper.hyperc import _l2_weights
from qhyper.linalg import schatten_norm
from qhyper.semigroup import apply_OU_coeffs

# ============================================================================
# letters, words and the coefficient <-> matrix map
# ============================================================================


def vacuum_state(X: np.ndarray) -> complex:
    """tau(X) = <X x_empty, x_empty>: the first entry of the vacuum column."""
    return complex(X[0, 0])


def word_of(model: BabyFock, windex: int) -> tuple:
    """Letter tuple (index 1 first) of a linear monomial index."""
    return tuple((windex >> (2 * k)) & 3 for k in range(model.n))


def apply_y(model: BabyFock, i: int, vec):
    """y_i = g*_i g_i - mu_i**-2 applied to a vector or the columns of a matrix."""
    out = model.apply_gamma_star(i, model.apply_gamma(i, vec))
    out -= vec / model.mu[i - 1] ** 2
    return out


def apply_letter(model: BabyFock, letter: int, i: int, vec):
    """The letter (UNIT, GEN, STAR or Y) at index i applied to vec; UNIT copies it."""
    if letter == UNIT:
        return np.array(vec, dtype=np.complex128, copy=True)
    if letter == GEN:
        return model.apply_gamma(i, vec)
    if letter == STAR:
        return model.apply_gamma_star(i, vec)
    if letter == Y:
        return apply_y(model, i, vec)
    raise ValueError(f"unknown letter {letter}")


def monomial_matrix(model: BabyFock, word) -> np.ndarray:
    """Dense matrix of the monomial with the given letter tuple, the letters
    applied right to left, index n first: the oracle for the monomial table."""
    X = model.identity()
    for k in range(model.n - 1, -1, -1):
        if word[k] != UNIT:
            X = apply_letter(model, word[k], k + 1, X)
    return X


def expand(model: BabyFock, X: np.ndarray) -> np.ndarray:
    """Monomial coefficients of X (exact inverse of the embedding)."""
    target, amp, _ = model._monomial_data()
    v = X[:, 0] if X.ndim == 2 else X
    return v[target] / amp


def reconstruct(model: BabyFock, coeffs: np.ndarray) -> np.ndarray:
    """Dense matrix of sum_w coeffs[w] M_w, scattered from the monomial table."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (model.dim,):
        raise ValueError(
            f"expected {model.dim} monomial coefficients, got shape {coeffs.shape}")
    word, row, col, val = model.monomial_table()
    flat, terms = row * model.dim + col, coeffs[word] * val
    out = np.empty(model.dim * model.dim, dtype=np.complex128)
    out.real = np.bincount(flat, terms.real, out.size)
    out.imag = np.bincount(flat, terms.imag, out.size)
    return out.reshape(model.dim, model.dim)


def random_element(model: BabyFock, rng, scale: float = 1.0) -> np.ndarray:
    """Random algebra element with i.i.d. complex gaussian coefficients."""
    c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    return reconstruct(model, scale * c)


def embed_lower(x_small: np.ndarray, small: BabyFock, big: BabyFock) -> np.ndarray:
    """Lift an element of the model on indices 1..k into a larger model.

    Words over the first k indices keep the same linear index in the
    larger model (higher letters are the unit), so this is a coefficient
    zero-pad followed by reconstruction.  The small model must be the big
    one restricted to its indices (``ModelParams.sub``): weights and signs.
    """
    if small.n > big.n or small.params != big.params.sub(small.n):
        raise ValueError("small model is not an initial segment of the big model")
    coeffs = np.zeros(big.dim, dtype=np.complex128)
    coeffs[:small.dim] = expand(small, np.asarray(x_small))
    return reconstruct(big, coeffs)


# ============================================================================
# Haagerup norms and the modular relation
# ============================================================================


def haagerup_norm(model: BabyFock, x: np.ndarray, p: float) -> float:
    """||x D**(1/p)||_p, the Schatten p-norm under the plain trace on C**(4**n),
    under which D has trace one."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return schatten_norm(np.asarray(x) @ state.get_density(model, 1.0 / p), p)


def modular_check(model: BabyFock, p: float) -> list:
    """Relative residuals of D**(1/p) g_k = mu_k**(4/p) g_k D**(1/p), per index.

    Each side is one letter application: g_k D**(1/p) applies g_k, and
    D**(1/p) g_k = (g*_k D**(1/p))* because D**(1/p) is Hermitian.
    """
    dp = state.get_density(model, 1.0 / p)
    out = []
    for k in range(1, model.n + 1):
        lhs = model.apply_gamma_star(k, dp).conj().T
        rhs = model.mu[k - 1] ** (4.0 / p) * model.apply_gamma(k, dp)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        out.append(float(np.linalg.norm(lhs - rhs) / scale))
    return out


# ============================================================================
# the semigroup on dense elements
# ============================================================================


def apply_OU(model: BabyFock, X: np.ndarray, t: float) -> np.ndarray:
    """P_t(X) through the monomial expansion, cross-checked on vacuum vectors."""
    out = reconstruct(model, apply_OU_coeffs(model, expand(model, X), t))
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
    deg = (np.arange(model.dim) >> (2 * (i - 1))) & 3
    deg = np.asarray(LETTER_DEGREE)[deg]
    return reconstruct(model, expand(model, X) * np.exp(-t * deg))


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
                blocks[a, b] = random_element(model, rng, scale=1.0 / np.sqrt(dim))
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
        + model.apply_gamma_star(n, parts[2]) + apply_y(model, n, parts[3])
    lhs = np.linalg.norm(apply_OU(model, X, t)[:, 0]) ** 2
    weights = (1.0, mu ** -2 * np.exp(-2 * t), mu ** 2 * np.exp(-2 * t), np.exp(-4 * t))
    rhs = sum(w * np.linalg.norm(apply_OU(small, np.asarray(x), t)[:, 0]) ** 2
              for w, x in zip(weights, (a, b, c, d)))
    return float(abs(lhs - rhs) / max(lhs, 1e-300))


# ============================================================================
# contraction ratios
# ============================================================================


def contraction_ratio(model: BabyFock, X: np.ndarray, t: float, p: float) -> float:
    """|| P_t(X) D**(1/2) ||_2 / || X D**(1/p) ||_p."""
    coeffs = expand(model, X)
    if not np.any(np.abs(coeffs) > 0):
        raise ValueError("zero element has no contraction ratio")
    num = np.sqrt(float(np.sum(_l2_weights(model, t) * np.abs(coeffs) ** 2)))
    den = haagerup_norm(model, X, p)
    return float(num / den)


def dual_contraction_ratio(model: BabyFock, X: np.ndarray, t: float, pprime: float) -> float:
    """|| P_t(X) D**(1/p') ||_p' / || X D**(1/2) ||_2."""
    coeffs = expand(model, X)
    if not np.any(np.abs(coeffs) > 0):
        raise ValueError("zero element has no contraction ratio")
    num = haagerup_norm(model, reconstruct(model, apply_OU_coeffs(model, coeffs, t)), pprime)
    den = np.sqrt(float(np.sum(_l2_weights(model, 0.0) * np.abs(coeffs) ** 2)))
    return float(num / den)
