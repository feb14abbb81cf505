"""The paper's inequalities and identities one instance at a time: the tests' reference.

``qhyper`` takes the three convexity margins on stacks of pairs, one SVD per
pair (``hyperc.convexity_margins``).  Here each inequality is written out as
displayed, for one pair of matrices, with every Schatten norm its own SVD and
each power mean's larger norm factored out, so that no power overflows.
The structural split of the n-index algebra over the (n-1)-index one (the
exact decomposition identity, the lower bounds on g_n b and g*_n c, and the
additivity of their disjoint supports) is checked here on monomial
coefficients, with every norm taken in the closed-form 2**n irrep, and so is
the duality transport of witnesses between the primal and dual searches.  The
q-inner product comes from its Gram matrices, sums of q**inversions over
matching permutations: the independent definition that pins the
annihilation convention of ``qhyper.qfock`` by adjointness.  No command and
no benchmark workload reaches any of these.
"""

from __future__ import annotations

import numpy as np

from qhyper.babyfock import GEN, STAR, UNIT, Y, BabyFock, get_model
from qhyper.hyperc import C_of_mu, _lam
from qhyper.linalg import schatten_norm

# ============================================================================
# convexity inequalities, one pair at a time
# ============================================================================


def _mean_sq(lam: float, x: float, y: float, r: float) -> float:
    """(lam x**r + (1 - lam) y**r)**(2/r), computed as m**2 (lam (x/m)**r + ...)**(2/r)
    with m = max(x, y), the square taken last."""
    m = max(x, y, 1e-300)
    return (m * (lam * (x / m) ** r + (1.0 - lam) * (y / m) ** r) ** (1.0 / r)) ** 2


def bcl_check(A: np.ndarray, B: np.ndarray, p: float) -> float:
    """Margin of the two-point convexity inequality, >= 0 for 1 < p <= 2."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"need 1 < p <= 2, got {p}")
    lhs = _mean_sq(0.5, schatten_norm(A + B, p), schatten_norm(A - B, p), p)
    return float(lhs - schatten_norm(A, p) ** 2 - (p - 1.0) * schatten_norm(B, p) ** 2)


def asym_convexity_check(A: np.ndarray, B: np.ndarray, p: float, mu: float) -> float:
    """Margin of the weighted asymmetric version with constant C(mu)."""
    lam = _lam(mu)
    lhs = _mean_sq(lam, schatten_norm(A + mu ** 2 * B, p), schatten_norm(A - B / mu ** 2, p), p)
    rhs = schatten_norm(A, p) ** 2 + C_of_mu(p, mu) * (p - 1.0) * schatten_norm(B, p) ** 2
    return float(lhs - rhs)


def dual_convexity_check(X: np.ndarray, Y: np.ndarray, q: float, mu: float,
                         coeff: float | None = None) -> float:
    """Margin of the dual inequality for q >= 2.

    The default coefficient (q-1) / (mu**4 C(p, mu)) with p conjugate to
    q is the one the duality argument produces; at q = 2 the sharp
    coefficient mu**-4 (an equality) can be passed explicitly.
    """
    if q < 2.0:
        raise ValueError(f"need q >= 2, got {q}")
    lam = _lam(mu)
    if coeff is None:
        coeff = (q - 1.0) / (mu ** 4 * C_of_mu(q / (q - 1.0), mu))
    lhs = schatten_norm(X, q) ** 2 + coeff * schatten_norm(Y, q) ** 2
    rhs = _mean_sq(lam, schatten_norm(X + Y, q),
                   schatten_norm(X - (lam / (1.0 - lam)) * Y, q), q)
    return float(lhs - rhs)


# ============================================================================
# structural identities (position of the smaller algebra)
# ============================================================================


def _split(model: BabyFock, p: float, x, z, *letters) -> tuple:
    """pi(x) rho**(1/p) and pi(z) rho**(1/p) for two coefficient vectors of the model on
    indices 1..n-1, in that model and lifted into this one (a word keeps its linear index,
    so a lift is a zero-pad), then pi of each given letter at index n."""
    small = get_model(model.params.sub(model.n - 1))
    c = np.array([x, z], dtype=np.complex128)
    return (small.irrep_sum(c, p),
            model.irrep_sum(np.pad(c, ((0, 0), (0, model.dim - small.dim))), p),
            *(model.irrep_matrix((UNIT,) * small.n + (l,)) for l in letters))


def decomposition_identity_check(a: np.ndarray, d: np.ndarray, p: float,
                                 model: BabyFock) -> dict:
    """Both sides of the exact split of || (a + y_n d) D**(1/p) ||_p**2.

    a, d are monomial coefficients of the model on indices 1..n-1.
    """
    mu = model.mu[model.n - 1]
    lam = _lam(mu)
    (sa, sd), (A, Dd), y = _split(model, p, a, d, Y)
    lhs = schatten_norm(A + y @ Dd, p) ** 2
    plus, minus = schatten_norm(np.array([sa + mu ** 2 * sd, sa - sd / mu ** 2]), p)
    rhs = (lam * plus ** p + (1.0 - lam) * minus ** p) ** (2.0 / p)
    return {"lhs": float(lhs), "rhs": float(rhs),
            "residual": float(abs(lhs - rhs)), "scale": float(max(lhs, rhs, 1e-300))}


def gamma_lower_bound_check(b: np.ndarray, c: np.ndarray, p: float,
                            model: BabyFock) -> dict:
    """Margins of || g_n b D**(1/p) ||_p >= lam**(1/p) (mu^2+mu^-2)**(1/2) || b D'**(1/p) ||_p
    and the starred counterpart with 1 - lam; b, c as in the decomposition check."""
    mu = model.mu[model.n - 1]
    lam = _lam(mu)
    fac = np.sqrt(mu ** 2 + mu ** -2)
    small, big, g, gs = _split(model, p, b, c, GEN, STAR)
    lhs_b, lhs_c = schatten_norm(np.array([g, gs]) @ big, p)
    rhs_b, rhs_c = np.array([lam, 1.0 - lam]) ** (1.0 / p) * fac * schatten_norm(small, p)
    return {"margin_b": float(lhs_b - rhs_b), "margin_c": float(lhs_c - rhs_c),
            "scale_b": float(max(lhs_b, rhs_b, 1e-300)),
            "scale_c": float(max(lhs_c, rhs_c, 1e-300))}


def disjoint_support_check(b: np.ndarray, c: np.ndarray, p: float,
                           model: BabyFock) -> dict:
    """p-th power additivity of g_n b + g*_n c (disjoint supports); b, c as in the gamma check."""
    _, big, g, gs = _split(model, p, b, c, GEN, STAR)
    gb, gc = np.array([g, gs]) @ big
    if not (np.any(np.abs(gb) > 0) or np.any(np.abs(gc) > 0)):
        raise ValueError("both parts vanish; additivity check is degenerate")
    total = schatten_norm(gb + gc, p) ** p
    parts = schatten_norm(gb, p) ** p + schatten_norm(gc, p) ** p
    return {"residual": float(abs(total - parts)),
            "scale": float(max(total, parts, 1e-300))}


# ============================================================================
# duality transport of witnesses
# ============================================================================


def apply_OU_coeffs(model: BabyFock, coeffs: np.ndarray, t: float) -> np.ndarray:
    """Monomial coefficients of P_t applied to the element with these coefficients."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return np.asarray(coeffs, dtype=np.complex128) * np.exp(-t * model.monomial_degrees)


def irrep_coeffs(model: BabyFock, A: np.ndarray, p: float) -> np.ndarray:
    """Monomial coefficients of the x with pi(x) rho**(1/p) = A: the monomials are orthogonal
    in the vacuum state, so c_w = trace(rho pi(M_w)* pi(x)) / |M_w x_empty|**2."""
    flip, vals, rho = model.irrep()
    rows, cols = np.arange(rho.size), np.arange(rho.size) ^ flip[:, None]
    terms = vals * rho[cols] ** (1.0 - 1.0 / p) * np.asarray(A)[rows, cols]
    return terms.sum(axis=1) / model.vacuum_weights


def witness_primal_to_dual(model: BabyFock, coeffs: np.ndarray, t: float) -> np.ndarray:
    """P_t maps a primal witness to a dual candidate with ratio at least as large."""
    out = apply_OU_coeffs(model, coeffs, t)
    return out / np.linalg.norm(out)


def witness_dual_to_primal(model: BabyFock, coeffs: np.ndarray, t: float, p: float) -> np.ndarray:
    """Norming element transport: dual witness -> primal candidate coefficients.

    For z = P_t(Y) D**(1/p'), the Hoelder-equality partner in L^p is
    z (z*z)**((p'-2)/2) = U S**(p'-1) V* (z = U S V*) up to normalization, taken
    in the irrep; dividing out D**(1/p) returns an algebra element, whose
    coefficients ``irrep_coeffs`` reads back.
    """
    pprime = p / (p - 1.0)
    z = model.irrep_sum(apply_OU_coeffs(model, coeffs, t)[None, :], pprime)[0]
    u, s, vh = np.linalg.svd(z / schatten_norm(z, pprime))
    out = irrep_coeffs(model, (u * s ** (pprime - 1.0)) @ vh, p)
    return out / np.linalg.norm(out)


# ============================================================================
# q-inner product
# ============================================================================

MAX_GRAM_LEVEL = 8


def _gram_entry(u: tuple, v: tuple, q: float) -> float:
    """Sum of q**inversions over permutations matching v onto u."""
    k = len(u)
    if k == 0:
        return 1.0
    dp = {0: 1.0}
    for r in range(k):
        ndp = {}
        for used, val in dp.items():
            for s in range(k):
                bit = 1 << s
                if used & bit or v[s] != u[r]:
                    continue
                above = (used >> (s + 1)).bit_count()
                key = used | bit
                ndp[key] = ndp.get(key, 0.0) + val * q ** above
        dp = ndp
        if not dp:
            return 0.0
    return dp.get((1 << k) - 1, 0.0)


def gram_matrix(words, q: float) -> np.ndarray:
    """Gram matrix of same-level basis words under the q-inner product."""
    words = [tuple(w) for w in words]
    if not words:
        return np.zeros((0, 0))
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise ValueError("gram_matrix needs words of one level")
    if k > MAX_GRAM_LEVEL:
        raise ValueError(f"gram level capped at {MAX_GRAM_LEVEL}")
    g = np.empty((len(words), len(words)))
    for a, u in enumerate(words):
        for b, v in enumerate(words):
            if b < a:
                g[a, b] = g[b, a]
            else:
                g[a, b] = _gram_entry(u, v, q)
    return g


def q_inner(x: dict, y: dict, q: float) -> complex:
    """<x, y>_q, linear in the first argument; words of different levels are orthogonal."""
    total = 0.0 + 0.0j
    for u, cu in x.items():
        for v, cv in y.items():
            if len(u) == len(v):
                total += cu * np.conj(cv) * _gram_entry(u, v, q)
    return complex(total)


def positivity_check(k: int, q: float, sample_words) -> float:
    """Smallest Gram eigenvalue over the given level-k words."""
    if not (-1.0 < q < 1.0):
        raise ValueError("positivity check needs -1 < q < 1")
    if k > 6:
        raise ValueError("positivity check capped at level 6")
    words = [tuple(w) for w in sample_words]
    if any(len(w) != k for w in words):
        raise ValueError("sample words must have level k")
    return float(np.min(np.linalg.eigvalsh(gram_matrix(words, q))))
