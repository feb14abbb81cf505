"""Hypercontractivity checks: convexity margins, time thresholds, ratio search.

The contraction being probed is x D**(1/p) -> P_t(x) D**(1/2) from L^p
into L^2 (1 < p < 2), plus the dual direction from L^2 into L^p'.  The
sufficient threshold is the proof-level bound

    exp(-2t) <= min over indices of
        min{ (mu**4 + 1)**(1 - 2/p) (p - 1),  sqrt(C(mu)) sqrt(p - 1) },

with C(mu) the asymmetric-convexity constant.  The three convexity
inequalities behind it are taken on stacks of random pairs, one SVD per
pair (``convexity_margins``).  The necessary threshold comes from the
second-order expansion of the canonical witness family 1 + eps g: exactly
(mu**(4/n) - 1)/(mu**4 - 1) at p' = 2n, while the displayed closed form
(1/n) mu**(4/n - 4) differs for mu > 1; both are reported with a
discrepancy flag.

The search is multistart randomized coordinate ascent over monomial
coefficients, vectorized across restarts and deterministic for a fixed
seed; it only ever produces lower bounds on the operator norm.  It and the
duality transport work on monomial coefficients with every Schatten norm
taken in the closed-form 2**n dimensional irreducible representation; none
reads the 4**n model.  The per-pair convexity functions and the structural
split identities of the n-index algebra over the (n-1)-index one are the
tests' reference, in ``tests/paper_reference.py``; the GNS-space ratios
``contraction_ratio`` and ``dual_contraction_ratio``, dense Haagerup norms of
4**n matrices, are the tests' oracle in ``tests/gns_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .babyfock import GEN, BabyFock
from .linalg import _TINY, schatten_norm, schatten_norm_from_sv, singular_values
from .semigroup import apply_OU_coeffs

__all__ = [
    "C_of_mu", "convexity_stack", "convexity_margins_sv", "convexity_margins",
    "sufficient_time", "RatioEvaluator", "ViolationWitness", "violation_search",
    "NecessaryThreshold", "necessary_time_exact", "witness_primal_to_dual",
    "witness_dual_to_primal",
]

SEARCH_ITERS = 200          # coordinate-ascent steps per search restart
STEP_FLOOR = 1e-8           # relative step below which a restart retires


# ============================================================================
# convexity inequalities
# ============================================================================


def _lam(mu: float) -> float:
    return 1.0 / (1.0 + mu ** 4)


def C_of_mu(p: float, mu: float) -> float:
    """Asymmetric convexity constant; the range boundary sits at p = 4/3.

    (The low/high split corresponds to the dual ranges q >= 4 and
    2 <= q < 4; both branches agree at p = 4/3.)
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"need 1 < p <= 2, got {p}")
    if mu < 1.0:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if p <= 4.0 / 3.0:
        return mu ** -4 / 3.0
    return mu ** (8.0 - 16.0 / p) / 3.0


def _per_mu(mu: np.ndarray, fn) -> np.ndarray:
    """fn of each weight in Python float arithmetic, once per distinct weight.

    numpy's array ``**`` can differ from Python's scalar ``**`` by an ulp, so
    the per-pair constants are taken as the tests' per-pair reference takes them,
    and the ``convexity`` records keep their bytes.
    """
    values, inverse = np.unique(mu, return_inverse=True)
    return np.array([fn(float(m)) for m in values])[inverse]


def convexity_stack(A: np.ndarray, B: np.ndarray, mu) -> np.ndarray:
    """The seven distinct matrices of the three convexity inequalities, per pair.

    A, B are (K, m, m) and mu is one weight per pair; the (K, 7, m, m)
    result holds A, B, A + B, A - B, A + mu**2 B, A - B / mu**2 and
    A - (lam / (1 - lam)) B, lam = 1 / (1 + mu**4).
    """
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), A.shape[:1])
    if np.any(mu < 1.0):
        raise ValueError(f"mu must be >= 1, got {mu[mu < 1.0][0]}")
    mu2 = _per_mu(mu, lambda m: m ** 2)[:, None, None]
    shift = _per_mu(mu, lambda m: _lam(m) / (1.0 - _lam(m)))[:, None, None]
    # each slice written in place: one (K, m, m) temporary at a time, not six
    stack = np.empty(A.shape[:1] + (7,) + A.shape[1:], np.result_type(A, B, mu2))
    stack[:, 0], stack[:, 1] = A, B
    stack[:, 2] = A + B
    stack[:, 3] = A - B
    stack[:, 4] = A + mu2 * B
    stack[:, 5] = A - B / mu2
    stack[:, 6] = A - shift * B
    return stack


def convexity_margins_sv(s: np.ndarray, p: float, mu, q: float) -> tuple:
    """The three convexity margins from the (K, 7, m) singular values of
    ``convexity_stack``: three (K,) arrays, not normalized, with ||.|| = ||.||_p,
    C = C(p, mu) and c = (q - 1) / (mu**4 C(q / (q - 1), mu)):

    - two-point: ((||A + B||**p + ||A - B||**p) / 2)**(2/p) - ||A||**2 - (p - 1) ||B||**2;
    - asymmetric: (lam ||A + mu**2 B||**p + (1 - lam) ||A - B / mu**2||**p)**(2/p)
      - ||A||**2 - C (p - 1) ||B||**2;
    - dual, in the q-norm: ||A||**2 + c ||B||**2
      - (lam ||A + B||**q + (1 - lam) ||A - (lam / (1 - lam)) B||**q)**(2/q).

    Each is >= 0 for 1 < p <= 2 and q >= 2."""
    if not (1.0 < p <= 2.0):
        raise ValueError(f"need 1 < p <= 2, got {p}")
    if q < 2.0:
        raise ValueError(f"need q >= 2, got {q}")
    mu = np.broadcast_to(np.asarray(mu, dtype=np.float64), s.shape[:1])
    lam = _per_mu(mu, _lam)
    nA, nB, nS, nD, nP, nM, _ = schatten_norm_from_sv(s, p).T
    bcl = _power_mean_sq(0.5, nS, nD, p) - nA ** 2 - (p - 1.0) * nB ** 2
    lhs = _power_mean_sq(lam, nP, nM, p)
    asym = lhs - (nA ** 2 + _per_mu(mu, lambda m: C_of_mu(p, m)) * (p - 1.0) * nB ** 2)
    coeff = _per_mu(mu, lambda m: (q - 1.0) / (m ** 4 * C_of_mu(q / (q - 1.0), m)))
    nX, nY, nXY, _, _, _, nXmY = schatten_norm_from_sv(s, q).T
    return bcl, asym, nX ** 2 + coeff * nY ** 2 - _power_mean_sq(lam, nXY, nXmY, q)


def _power_mean_sq(lam, x, y, r: float):
    """(lam x**r + (1 - lam) y**r)**(2/r) with max(x, y) factored out, as ``schatten_norm_from_sv``
    does: no power overflows, at exponents r up to 1e15 or norms near mu**2 ~ 1e154."""
    top = np.maximum(np.maximum(x, y), _TINY)
    return (top * (lam * (x / top) ** r + (1.0 - lam) * (y / top) ** r) ** (1.0 / r)) ** 2


def convexity_margins(A: np.ndarray, B: np.ndarray, p: float, mu, q: float) -> tuple:
    """The three convexity margins of each pair over ||A||_2**2 + ||B||_2**2.

    One stacked SVD of the seven distinct matrices per pair serves all three.
    """
    s = singular_values(convexity_stack(A, B, mu))
    nA, nB = schatten_norm_from_sv(s[:, :2], 2.0).T
    scale = nA ** 2 + nB ** 2
    return tuple(margin / scale for margin in convexity_margins_sv(s, p, mu, q))


# ============================================================================
# time thresholds
# ============================================================================


def sufficient_time(p: float, mu) -> float:
    """Proof-level exp(-2t) threshold, minimized over the index weights."""
    if not (1.0 < p < 2.0):
        raise ValueError(f"need 1 < p < 2, got {p}")
    mus = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    best = np.inf
    for m in mus:
        a = (m ** 4 + 1.0) ** (1.0 - 2.0 / p) * (p - 1.0)
        b = np.sqrt(C_of_mu(p, float(m))) * np.sqrt(p - 1.0)
        best = min(best, a, b)
    return float(best)


@dataclass(frozen=True)
class NecessaryThreshold:
    """Exact vs displayed necessary exp(-2t) threshold at p' = 2 n_half."""

    exact: float
    paper_display: float

    @property
    def differs(self) -> bool:
        return abs(self.exact - self.paper_display) > 1e-12 * self.exact


def necessary_time_exact(n_half: int, mu: float) -> NecessaryThreshold:
    """Threshold where the witness 1 + eps g stops contracting into L^(2 n_half).

    Comparing the displayed second-order coefficients directly gives
    (mu**(4/n) - 1)/(mu**4 - 1); the displayed closed form is
    (1/n) mu**(4/n - 4).  They agree only at mu = 1 (both 1/n).
    """
    if n_half < 2:
        raise ValueError(f"n_half must be >= 2, got {n_half}")
    if mu < 1.0:
        raise ValueError(f"mu must be >= 1, got {mu}")
    n = float(n_half)
    if mu == 1.0:
        exact = 1.0 / n
    else:
        exact = (mu ** (4.0 / n) - 1.0) / (mu ** 4 - 1.0)
    return NecessaryThreshold(exact=exact, paper_display=mu ** (4.0 / n - 4.0) / n)


# ============================================================================
# contraction ratios
# ============================================================================


def _l2_weights(model: BabyFock, t: float) -> np.ndarray:
    """Per-monomial weight |amp_w|**2 exp(-2 t deg_w): squared L2 norm terms."""
    _, amp, deg = model._monomial_data()
    return amp ** 2 * np.exp(-2.0 * t * deg)


class RatioEvaluator:
    """Batched contraction-ratio evaluation over monomial coefficient vectors.

    direction "primal": L2 numerator from the coefficient weights,
    Schatten denominator from sum_w c_w M_w D**(1/p).  direction
    "dual": Schatten numerator with the semigroup folded into the
    per-monomial rows, L2 denominator from the weights.

    The Schatten norms are taken in the closed-form 2**n dimensional irreducible
    representation (``BabyFock.irrep``) with its diagonal trace-one density rho; there
    the plain p-norm of sum_w c_w pi(M_w) rho**(1/p) is the Haagerup norm, taken by
    ``BabyFock.irrep_sum`` and ``irrep_add`` with the decay exp(-t deg_w) in the coefficients.
    The 4**n density and monomial table are never read, so every n up to MAX_N works; the
    4**n path is the tests' oracle (``contraction_ratio`` and ``dual_contraction_ratio`` in
    ``tests/gns_oracle.py``); ``state.get_density``, built in closed form on the sparse
    4**n layout, stays in ``src`` for the benchmark.
    """

    def __init__(self, model: BabyFock, t: float, p: float, direction: str = "primal"):
        if direction not in ("primal", "dual"):
            raise ValueError(f"unknown direction {direction!r}")
        if not 1.0 <= p < np.inf:
            raise ValueError(f"p must be finite and at least 1, got {p}")
        if not 0.0 <= t < np.inf:
            raise ValueError(f"t must be finite and non-negative, got {t}")
        self.model = model
        self.t = float(t)
        self.p = float(p)           # in the dual direction p plays the role of p'
        self.direction = direction
        self.vec_weights = _l2_weights(model, t if direction == "primal" else 0.0)
        self.decay = np.exp(-(t if direction == "dual" else 0.0) * model.monomial_degrees)

    def add_words(self, mats: np.ndarray, words: np.ndarray, coeffs: np.ndarray) -> None:
        """mats[j] += coeffs[j] (decayed) pi(M_{words[j]}) rho**(1/p) in place."""
        self.model.irrep_add(mats, words, coeffs * self.decay[words], self.p)

    def matrices(self, coeffs: np.ndarray) -> np.ndarray:
        """sum_w c_w (decayed) pi(M_w) rho**(1/p) per row c."""
        return self.model.irrep_sum(np.atleast_2d(coeffs) * self.decay, self.p)

    def ratios(self, coeffs: np.ndarray, mats: np.ndarray | None = None) -> np.ndarray:
        coeffs = np.atleast_2d(coeffs)
        if mats is None:
            mats = self.matrices(coeffs)
        vec = np.sqrt(np.sum(self.vec_weights * np.abs(coeffs) ** 2, axis=1))
        mat = schatten_norm(mats, self.p)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = vec / mat if self.direction == "primal" else mat / vec
        return np.where(np.isfinite(out), out, 0.0)

    def ratio(self, coeffs: np.ndarray) -> float:
        return float(self.ratios(coeffs[None, :])[0])


@dataclass
class ViolationWitness:
    """Best ratio found by the search and the coefficients achieving it."""

    coeffs: np.ndarray
    ratio: float


def _canonical_seeds(model: BabyFock) -> list:
    """The identity and 1 + eps g_i for eps in {1e-2, 1e-1}."""
    seeds = []
    unit = np.zeros(model.dim, dtype=np.complex128)
    unit[0] = 1.0
    seeds.append(unit)
    for i in range(1, model.n + 1):
        w = model.windex_of(tuple(GEN if k == i - 1 else 0 for k in range(model.n)))
        for eps in (1e-2, 1e-1):
            c = unit.copy()
            c[w] = eps
            seeds.append(c)
    return seeds


def violation_search(model: BabyFock, t: float, p: float, direction: str = "primal",
                     restarts: int = 100, seed: int = 0) -> ViolationWitness:
    """Multistart coordinate ascent on the contraction ratio.

    Deterministic for a fixed seed; restarts are vectorized in blocks
    and each keeps a relative step that starts at 0.1 and halves on
    every failed proposal, retiring the restart once it drops below
    ``STEP_FLOOR``.  The search runs over all 4**n monomial coefficients; a
    step changes one, so 2**n entries of its 2**n x 2**n matrix in the closed-form
    irreducible representation (``RatioEvaluator.add_words``), for every n up to
    MAX_N.  Returns the best ratio found (a lower bound on the operator norm,
    never a certificate).
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    ev = RatioEvaluator(model, t, p, direction)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    nw = model.dim
    starts = rng.standard_normal((restarts, nw)) + 1j * rng.standard_normal((restarts, nw))
    for k, c in enumerate(_canonical_seeds(model)[:restarts]):
        starts[k] = c
    # every row keeps norm 1: the ratio is scale-invariant, so a step is relative
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    best_ratio = -np.inf
    best_coeffs = None
    # rows per block: about 2**24 entries in flight, 4**n matrix and 4**n coefficient ones a row
    block_rows = max(1, (1 << 24) // (2 * nw))
    dirs4 = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)
    for lo in range(0, restarts, block_rows):
        C = starts[lo:lo + block_rows].copy()
        rows = C.shape[0]
        mats = ev.matrices(C)
        ratio = ev.ratios(C, mats)
        step = np.full(rows, 0.1)
        active = np.arange(rows)
        for _ in range(SEARCH_ITERS):
            if active.size == 0:
                break
            k_idx = rng.integers(0, nw, size=active.size)
            d_idx = rng.integers(0, 4, size=active.size)
            delta = step[active] * dirs4[d_idx]
            cand_mats = mats[active]
            ev.add_words(cand_mats, k_idx, delta)
            cand = C[active].copy()
            cand[np.arange(active.size), k_idx] += delta
            cand_ratio = ev.ratios(cand, cand_mats)
            better = cand_ratio > ratio[active]
            upd = active[better]
            if upd.size:
                # renormalize: the ratio is scale-invariant and unnormalized
                # coefficients would otherwise compound without bound
                nrm = np.linalg.norm(cand[better], axis=1)
                C[upd] = cand[better] / nrm[:, None]
                mats[upd] = cand_mats[better] / nrm[:, None, None]
                ratio[upd] = cand_ratio[better]
            worse = active[~better]
            step[worse] *= 0.5
            active = active[(step[active] >= STEP_FLOOR)]
        blk_best = int(np.argmax(ratio))
        if ratio[blk_best] > best_ratio:
            best_ratio = float(ratio[blk_best])
            best_coeffs = C[blk_best].copy()
    return ViolationWitness(coeffs=best_coeffs, ratio=best_ratio)


# ============================================================================
# duality helpers for witness transport
# ============================================================================


def witness_primal_to_dual(model: BabyFock, coeffs: np.ndarray, t: float) -> np.ndarray:
    """P_t maps a primal witness to a dual candidate with ratio at least as large."""
    out = apply_OU_coeffs(model, coeffs, t)
    return out / np.linalg.norm(out)


def witness_dual_to_primal(model: BabyFock, coeffs: np.ndarray, t: float, p: float) -> np.ndarray:
    """Norming element transport: dual witness -> primal candidate coefficients.

    For z = P_t(Y) D**(1/p'), the Hoelder-equality partner in L^p is
    z (z*z)**((p'-2)/2) = U S**(p'-1) V* (z = U S V*) up to normalization, taken
    in the irrep; dividing out D**(1/p) returns an algebra element, whose
    coefficients ``BabyFock.irrep_coeffs`` reads back.
    """
    pprime = p / (p - 1.0)
    z = model.irrep_sum(apply_OU_coeffs(model, coeffs, t)[None, :], pprime)[0]
    u, s, vh = np.linalg.svd(z / schatten_norm(z, pprime))
    out = model.irrep_coeffs((u * s ** (pprime - 1.0)) @ vh, p)
    return out / np.linalg.norm(out)
