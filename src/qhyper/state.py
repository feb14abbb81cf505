"""Vacuum-state density: the closed form D, its powers, and the monomial trace solve.

The vacuum state tau(X) = <X x_empty, x_empty> is represented inside the
algebra by the positive element D with trace(D W) = tau(W), where trace is
the plain matrix trace on the 4**n GNS representation.  With lambda_i =
1/(1 + mu_i**4) and the projection p_i = g*_i g_i / (mu_i**2 + mu_i**-2),

    D = 2**-n prod_i ((1 - lambda_i) + (2 lambda_i - 1) p_i),

a product of n commuting two-level factors whose trace is exactly one.
``get_density(model, alpha)`` builds D**alpha, the product of the factors
raised to alpha, on the sparse 4**n layout and checks D against tau on every
word through the monomial table.  The 4**n model is 2**n copies of the irrep
(``BabyFock.irrep``), where pi(D) = diag(rho) / 2**n.  ``density_solve``
finds the monomial coefficients of D from the trace system alone, block by
block in the irrep.
"""

from __future__ import annotations

import numpy as np

from .babyfock import BabyFock

__all__ = [
    "get_density", "density_solve", "defining_property_residual",
    "IllConditionedSolve", "SOLVE_TOL",
]

# largest max_w |trace(D M_w) - tau(M_w)| accepted from the closed form
VERIFY_TOL = 1e-10
# largest residual of a block of density_solve, relative to max(1, |its right-hand side|)
SOLVE_TOL = 1e-8


class IllConditionedSolve(ArithmeticError):
    """A block of the monomial trace system solved with a residual above SOLVE_TOL."""

    def __init__(self, residual: float):
        super().__init__(f"monomial trace system is ill-conditioned: residual {residual:.3e}")
        self.residual = residual


def get_density(model: BabyFock, alpha: float = 1.0) -> np.ndarray:
    """D**alpha for the vacuum density D = 2**-n prod_i F_i, with the commuting factors
    F_i = (1 - lambda_i) (1 - p_i) + lambda_i p_i, lambda_i = 1/(1 + mu_i**4).

    D**alpha = 2**(-n alpha) prod_i F_i**alpha is scattered from the sparse entries of
    the product (``BabyFock._density_entries``: F_i**alpha = (1 - lambda_i)**alpha (1 -
    p_i) + lambda_i**alpha p_i is a diagonal on the bits of +-i plus the flip of an
    empty or full pair) and cached on the model per alpha.  Every lambda_i is in
    (0, 1), so every real power exists; the product of the F_i has trace exactly 2**n
    (pi(rho) tensor 1, rho of trace one on C**(2**n)), so no computed trace is divided
    out.  D itself is built first, whichever power is asked for, and its build checks
    that it represents tau on every word: once per model.
    """

    def build(a):
        row, col, val = model._density_entries(a)
        X = np.zeros((model.dim, model.dim), dtype=np.complex128)
        X[row, col] = val * 2.0 ** (-model.n * a)
        if a == 1.0:
            resid = defining_property_residual(model, X)
            if resid > VERIFY_TOL:
                raise AssertionError(
                    f"density does not represent the vacuum state: residual {resid:.3e}")
        return X

    D = model._cached(("density", 1.0), lambda: build(1.0))
    alpha = float(alpha)
    return D if alpha == 1.0 else model._cached(("density", alpha), lambda: build(alpha))


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


def density_solve(model: BabyFock, vacuum_values: np.ndarray | None = None) -> np.ndarray:
    """Monomial coefficients of D, solved from trace(D M_b) = tau(M_b) over monomials.

    ``vacuum_values`` overrides the right-hand side (indexed by monomial);
    by default tau(M_b) is 1 for the unit word and 0 otherwise.  The 4**n
    representation is 2**n copies of the irrep (``BabyFock.irrep``), so the Gram
    matrix is trace(M_a M_b) = 2**n sum_r vals[a, r] vals[b, r ^ m], non-zero only
    when a and b share the column map r -> r ^ m (``flip`` = m): 2**n blocks of 2**n
    words, each solved on its own.  Its entries reach prod_i mu_i**4, so each word's row of
    ``vals`` is first scaled to unit max, and the block is solved for the scaled
    coefficients.  The solve reads neither rho nor the closed-form D, and forms no 4**n
    matrix: ``reconstruct`` of the result in ``tests/gns_oracle.py`` is the dense D.  A
    block whose residual (of the scaled system) exceeds SOLVE_TOL raises
    ``IllConditionedSolve``.
    """
    flip, vals, _ = model.irrep()
    rows = np.arange(vals.shape[1])
    rhs = np.zeros(model.dim, dtype=np.complex128)
    rhs[0] = 1.0
    if vacuum_values is not None:
        rhs = np.asarray(vacuum_values, dtype=np.complex128)
    if rhs.shape != (model.dim,):
        raise ValueError(f"expected {model.dim} vacuum values, got shape {rhs.shape}")
    coeffs = np.zeros(model.dim, dtype=np.complex128)
    for m in rows:
        w = np.flatnonzero(flip == m)
        # each word's row scaled to unit max: S^-1 G S^-1 (S c) = S^-1 b, with entries
        # near 1 where G's reach prod_i mu_i**4
        scale = np.max(np.abs(vals[w]), axis=1)
        v, b = vals[w] / scale[:, None], rhs[w] / scale
        gram = rows.size * (v @ v[:, rows ^ m].T)
        x = np.linalg.solve(gram, b)
        resid = np.linalg.norm(gram @ x - b) / max(1.0, np.linalg.norm(b))
        if not resid <= SOLVE_TOL:
            raise IllConditionedSolve(float(resid))
        coeffs[w] = x / scale
    return coeffs
