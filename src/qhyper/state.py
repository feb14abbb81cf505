"""Vacuum-state density, Haagerup L^p norms, and modular commutation checks.

The vacuum state tau(X) = <X x_empty, x_empty> is represented inside the
algebra by the positive element D with trace(D W) = tau(W), where the
reference trace is the plain matrix trace on the 4**n GNS representation.
D factorizes over indices: with lambda_i = 1/(1 + mu_i**4) and the
projection p_i = g*_i g_i / (mu_i**2 + mu_i**-2),

    D = c * prod_i ((1 - lambda_i) + (2 lambda_i - 1) p_i),

normalized to trace one.  L^p elements are x D**(1/p) with the Schatten
p-norm; the norms do not depend on how the reference trace is scaled.
The functions here stay in the 4**n representation and serve as the
oracle.  The check trace(D M_w) = tau(M_w) over every word and the
independent linear solve for D (n <= SOLVE_MAX_N) both read the sparse
monomial table (``BabyFock.monomial_table``), whatever n is.  The ratio
search in ``hyperc`` takes its norms in the closed-form 2**n dimensional
irreducible representation (``BabyFock.irrep``), where the same product
is a diagonal rho of trace one and ||X D**(1/p)||_p = ||pi(X) rho**(1/p)||_p
with no scale factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .babyfock import BabyFock
from .linalg import schatten_norm

__all__ = [
    "DensityFactorization", "density_closed_form", "get_density",
    "density_solve", "haagerup_embed", "haagerup_norm", "modular_check",
    "embed_lower", "defining_property_residual", "SOLVE_MAX_N",
]

# largest n for density_solve: its Gram matrix is 4**n x 4**n, a 16**n-entry dense solve
SOLVE_MAX_N = 5
# monomial-table entries paired at a time by density_solve (17**4 = 83521 at n = 4)
PAIR_BLOCK = 1 << 18


@dataclass
class DensityFactorization:
    """Density of the vacuum state as a commuting product of two-level factors."""

    lambdas: tuple
    projections: list
    density: np.ndarray
    normalization: float
    _spectrum: tuple = field(default=None, repr=False)

    def spectrum(self):
        if self._spectrum is None:
            w, v = np.linalg.eigh(self.density)
            w = np.where((w < 0) & (w >= -1e-12), 0.0, w)
            if np.min(w) < 0:
                raise ValueError(f"density has a negative eigenvalue {np.min(w):.3e}")
            self._spectrum = (w, v)
        return self._spectrum

    def power(self, alpha: float) -> np.ndarray:
        """D**alpha through the cached spectral decomposition."""
        w, v = self.spectrum()
        if alpha < 0 and np.min(w) <= 0.0:
            raise ValueError("negative power of a singular density")
        return (v * w ** alpha) @ v.conj().T


def defining_property_residual(model: BabyFock, D: np.ndarray) -> float:
    """max_w |trace(D M_w) - tau(M_w)| over all monomials.

    trace(D M_w) = sum of M_w[r, c] D[c, r] over the entries of the monomial
    table, one ``bincount`` per real and imaginary part.
    """
    word, row, col, val = model.monomial_table()
    terms = np.asarray(D)[col, row] * val
    traces = np.bincount(word, terms.real, model.dim) \
        + 1j * np.bincount(word, terms.imag, model.dim)
    traces[0] -= 1.0
    return float(np.max(np.abs(traces)))


def density_closed_form(model: BabyFock, verify_tol: float = 1e-10) -> DensityFactorization:
    """Build D from the per-index factorization and verify it represents tau."""
    mu = model.mu
    lambdas = tuple(1.0 / (1.0 + m ** 4) for m in mu)
    projections = []
    D = np.eye(model.dim, dtype=np.complex128)
    for i in range(1, model.n + 1):
        c = mu[i - 1] ** 2 + mu[i - 1] ** -2
        p = model.apply_gamma_star(i, model.gamma(i)) / c
        projections.append(p)
        lam = lambdas[i - 1]
        D = (1.0 - lam) * D + (2.0 * lam - 1.0) * (D @ p)
    norm = float(np.real(np.trace(D)))
    D /= norm
    resid = defining_property_residual(model, D)
    if resid > verify_tol:
        raise AssertionError(
            f"density does not represent the vacuum state: residual {resid:.3e}")
    return DensityFactorization(lambdas=lambdas, projections=projections,
                                density=D, normalization=1.0 / norm)


def get_density(model: BabyFock) -> DensityFactorization:
    """Cached density for a model instance."""
    dens = model._matrix_cache.get(("density",))
    if dens is None:
        dens = density_closed_form(model)
        model._matrix_cache[("density",)] = dens
    return dens


def density_solve(model: BabyFock, vacuum_values: np.ndarray | None = None) -> np.ndarray:
    """Independent density oracle: solve trace(D M_b) = tau(M_b) over monomials.

    ``vacuum_values`` overrides the right-hand side (indexed by monomial);
    by default tau(M_b) is 1 for the unit word and 0 otherwise.  The Gram
    matrix trace(M_a M_b) pairs each entry (r, c) of the monomial table with
    the entries at (c, r); its 4**n x 4**n solve limits n to SOLVE_MAX_N.
    """
    if model.n > SOLVE_MAX_N:
        raise ValueError(f"density_solve is limited to n <= {SOLVE_MAX_N}")
    nw, dim = model.dim, model.dim
    word, row, col, val = model.monomial_table()
    # entry e pairs with the cnt[e] entries at its transposed position, which
    # sit at sorted positions lo[e], lo[e] + 1, ... of the (row, col) keys
    key = row * dim + col
    order = np.argsort(key, kind="stable")
    lo, hi = (np.searchsorted(key[order], col * dim + row, side) for side in ("left", "right"))
    cnt = hi - lo
    # pairs are made PAIR_BLOCK entries at a time and added in entry order, so
    # every Gram entry is the same sum as one bincount over all pairs
    gram = np.zeros(nw * nw)
    for a in range(0, word.size, PAIR_BLOCK):
        c = cnt[a:a + PAIR_BLOCK]
        first = np.repeat(np.arange(a, a + c.size), c)
        second = order[np.repeat(lo[a:a + PAIR_BLOCK] - np.cumsum(c) + c, c)
                       + np.arange(first.size)]
        np.add.at(gram, word[first] * nw + word[second], val[first] * val[second])
    gram = gram.reshape(nw, nw)
    rhs = np.zeros(nw, dtype=np.complex128)
    rhs[0] = 1.0
    if vacuum_values is not None:
        rhs = np.asarray(vacuum_values, dtype=np.complex128)
    coeffs = np.linalg.solve(gram, rhs)
    resid = np.linalg.norm(gram @ coeffs - rhs)
    if resid > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        raise AssertionError(f"monomial trace system is ill-conditioned: residual {resid:.3e}")
    return model.reconstruct(coeffs)


def haagerup_embed(model: BabyFock, x: np.ndarray, p: float,
                   density: DensityFactorization | None = None) -> np.ndarray:
    """x D**(1/p), the L^p representative of x."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    dens = density or get_density(model)
    return np.asarray(x) @ dens.power(1.0 / p)


def haagerup_norm(model: BabyFock, x: np.ndarray, p: float,
                  density: DensityFactorization | None = None,
                  trace_scale: float = 1.0) -> float:
    """Schatten p-norm of x D**(1/p) under the (optionally rescaled) trace.

    ``trace_scale`` c replaces the reference trace by c * trace and the
    density by D / c; the result is provably independent of c and the
    parameter exists to let tests exercise exactly that.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    dens = density or get_density(model)
    if trace_scale == 1.0:
        return schatten_norm(np.asarray(x) @ dens.power(1.0 / p), p)
    w, v = dens.spectrum()
    scaled = (v * (w / trace_scale) ** (1.0 / p)) @ v.conj().T
    return float(trace_scale ** (1.0 / p) * schatten_norm(np.asarray(x) @ scaled, p))


def modular_check(model: BabyFock, p: float,
                  density: DensityFactorization | None = None) -> list:
    """Relative residuals of D**(1/p) g_k = mu_k**(4/p) g_k D**(1/p), per index."""
    dens = density or get_density(model)
    dp = dens.power(1.0 / p)
    out = []
    for k in range(1, model.n + 1):
        g = model.gamma(k)
        lhs = dp @ g
        rhs = model.mu[k - 1] ** (4.0 / p) * (g @ dp)
        scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
        out.append(float(np.linalg.norm(lhs - rhs) / scale))
    return out


def embed_lower(x_small: np.ndarray, small: BabyFock, big: BabyFock) -> np.ndarray:
    """Lift an element of the model on indices 1..k into a larger model.

    Words over the first k indices keep the same linear index in the
    larger model (higher letters are the unit), so this is a coefficient
    zero-pad followed by reconstruction.
    """
    if small.n > big.n or small.params.mu != big.params.mu[:small.n]:
        raise ValueError("small model is not an initial segment of the big model")
    coeffs = np.zeros(big.dim, dtype=np.complex128)
    coeffs[:small.dim] = small.expand(np.asarray(x_small))
    return big.reconstruct(coeffs)
