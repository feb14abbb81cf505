"""Exact moment oracle on the truncated q-deformed Fock space.

Vectors are level-graded sparse maps from label words to coefficients;
creation prepends a label, annihilation removes matching labels with
weights q**(position).  Generalized circular letters expand as
g_i = mu_i**-1 l(e_i) + mu_i l*(e_{-i}).  Moments are computed two
independent ways: by operator application to the vacuum, and by a
pair-partition sum with crossing weight q**crossings; the two must
agree, which pins the annihilation convention against the abstract
definition by adjointness.

Word expressions admit the token (g+g*), the real combination divided
by sqrt(mu**2 + mu**-2) so that its square has moment exactly one; raw
letters g, g* keep the circular normalization.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QParams", "TruncatedFockVector", "create_apply", "annihilate_apply",
    "gram_matrix", "q_inner", "second_quantize_OU", "positivity_check",
    "moment", "moment_operator", "moment_pairings", "parse_word",
    "word_adjoint",
]

MAX_WORD_LEN = 10
MAX_GRAM_LEVEL = 8


@dataclass(frozen=True)
class QParams:
    """Deformation q in [-1, 1), number of letter indices, weights, level cap."""

    q: float
    n: int = 1
    mu: tuple = (1.0,)
    max_level: int = 8

    def __post_init__(self):
        if not (-1.0 <= self.q < 1.0):
            raise ValueError(f"q must be in [-1, 1), got {self.q}")
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        if len(self.mu) != self.n:
            raise ValueError(f"need {self.n} mu values, got {len(self.mu)}")
        if any(m < 1.0 for m in self.mu):
            raise ValueError("mu entries must be >= 1")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")


@dataclass
class TruncatedFockVector:
    """Sparse level-graded coefficients; level k maps k-label words to amplitudes."""

    levels: dict = field(default_factory=dict)

    @classmethod
    def vacuum(cls) -> "TruncatedFockVector":
        return cls(levels={0: {(): 1.0 + 0.0j}})

    def coefficient(self, word: tuple) -> complex:
        return self.levels.get(len(word), {}).get(tuple(word), 0.0 + 0.0j)

    def axpy(self, scalar: complex, other: "TruncatedFockVector"):
        for k, terms in other.levels.items():
            dst = self.levels.setdefault(k, {})
            for w, c in terms.items():
                dst[w] = dst.get(w, 0.0) + scalar * c

    def prune(self, tol: float = 0.0) -> "TruncatedFockVector":
        self.levels = {
            k: {w: c for w, c in terms.items() if abs(c) > tol}
            for k, terms in self.levels.items()}
        self.levels = {k: t for k, t in self.levels.items() if t}
        return self


def create_apply(label: int, v: TruncatedFockVector, params: QParams,
                 level_cap: int | None = None) -> TruncatedFockVector:
    """Left creation by the basis label; aborts past the truncation level.

    ``level_cap`` below max_level projects instead of aborting; callers
    use it when the dropped components provably cannot reach the vacuum
    again within the remaining word.
    """
    if not (1 <= abs(label) <= params.n):
        raise ValueError(f"label {label} out of range")
    cap = params.max_level if level_cap is None else min(level_cap, params.max_level)
    out = TruncatedFockVector()
    for k, terms in v.levels.items():
        if k + 1 > cap:
            if level_cap is None and terms:
                raise OverflowError(
                    f"creation would exceed truncation level {params.max_level}")
            continue
        dst = out.levels.setdefault(k + 1, {})
        for w, c in terms.items():
            nw = (label,) + w
            dst[nw] = dst.get(nw, 0.0) + c
    return out


def annihilate_apply(label: int, v: TruncatedFockVector, params: QParams) -> TruncatedFockVector:
    """q-annihilation: remove each matching label with weight q**(position)."""
    if not (1 <= abs(label) <= params.n):
        raise ValueError(f"label {label} out of range")
    q = params.q
    out = TruncatedFockVector()
    for k, terms in v.levels.items():
        if k == 0:
            continue
        dst = out.levels.setdefault(k - 1, {})
        for w, c in terms.items():
            for pos, lab in enumerate(w):
                if lab != label:
                    continue
                nw = w[:pos] + w[pos + 1:]
                dst[nw] = dst.get(nw, 0.0) + (q ** pos) * c
    out.levels = {k: t for k, t in out.levels.items() if t}
    return out


# ============================================================================
# q-inner product
# ============================================================================


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
                above = bin(used >> (s + 1)).count("1")
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


def q_inner(x: TruncatedFockVector, y: TruncatedFockVector, q: float) -> complex:
    """<x, y>_q, linear in the first argument."""
    total = 0.0 + 0.0j
    cache: dict = {}
    for k, xterms in x.levels.items():
        yterms = y.levels.get(k)
        if not yterms:
            continue
        for u, cu in xterms.items():
            for v, cv in yterms.items():
                key = (u, v)
                ent = cache.get(key)
                if ent is None:
                    ent = _gram_entry(u, v, q)
                    cache[key] = ent
                total += cu * np.conj(cv) * ent
    return complex(total)


def second_quantize_OU(v: TruncatedFockVector, t: float) -> TruncatedFockVector:
    """Scale level k by exp(-k t)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return TruncatedFockVector(levels={
        k: {w: c * np.exp(-k * t) for w, c in terms.items()}
        for k, terms in v.levels.items()})


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


# ============================================================================
# words in the generalized circular letters
# ============================================================================

# a letter is (kind, index) with kind in "g", "g*", "x"; "x" is the
# normalized real combination (g + g*) / sqrt(mu**2 + mu**-2)

_TOKEN = re.compile(r"""
    \(\s*[gs](?P<i1>\d*)\s*\+\s*[gs](?P<i2>\d*)\*\s*\)   # (g+g*)
  | [gs](?P<i3>\d*)(?P<star>\*?)                         # g, g*, g2, ...
  | \^(?P<exp>\d+)                                       # exponent
  | (?P<ws>[\s.]+)
""", re.VERBOSE)


def parse_word(text: str) -> list:
    """Parse a word expression into a letter list.

    Examples: "g*g" -> [("g*", 1), ("g", 1)];  "(g+g*)^4" -> four "x"
    letters;  indices as in "g2*".  A missing index means 1; indices and
    exponents below 1 are rejected.
    """
    letters = []
    pos = 0
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if not mt:
            raise ValueError(f"cannot parse word at ...{text[pos:]!r}")
        pos = mt.end()
        if mt.group("ws"):
            continue
        if mt.group("exp"):
            if not letters:
                raise ValueError("exponent without a preceding factor")
            power = int(mt.group("exp"))
            if power < 1:
                raise ValueError(f"exponent must be at least 1, got ^{mt.group('exp')}")
            letters.extend(letters[-1:] * (power - 1))
            continue
        if mt.group("i1") is not None:
            i1, i2 = mt.group("i1") or "1", mt.group("i2") or "1"
            if i1 != i2:
                raise ValueError(f"mixed indices in (g+g*) token: {i1} vs {i2}")
            idx, kind = int(i1), "x"
        else:
            idx, kind = int(mt.group("i3") or "1"), "g*" if mt.group("star") else "g"
        if idx < 1:
            raise ValueError(f"letter index must be at least 1, got {mt.group(0)!r}")
        letters.append((kind, idx))
    if not letters:
        raise ValueError("empty word")
    return letters


def word_adjoint(letters) -> list:
    """Adjoint word: reversed order with g <-> g* (x is self-adjoint)."""
    flip = {"g": "g*", "g*": "g", "x": "x"}
    return [(flip[k], i) for k, i in reversed(letters)]


def _apply_g_parts(i: int, parts, v, params, level_cap):
    """Apply a combination sum_j weight_j * (create or annihilate)."""
    out = TruncatedFockVector()
    for weight, label, create in parts:
        piece = (create_apply(label, v, params, level_cap=level_cap)
                 if create else annihilate_apply(label, v, params))
        out.axpy(weight, piece)
    return out.prune()


def _letter_parts(kind: str, i: int, mu_i: float):
    g_parts = [(1.0 / mu_i, i, True), (mu_i, -i, False)]
    gs_parts = [(1.0 / mu_i, i, False), (mu_i, -i, True)]
    if kind == "g":
        return g_parts
    if kind == "g*":
        return gs_parts
    nrm = 1.0 / np.sqrt(mu_i ** 2 + mu_i ** -2)
    return [(w * nrm, lab, cr) for w, lab, cr in g_parts + gs_parts]


def moment_operator(letters, params: QParams) -> complex:
    """tau of the word by right-to-left application to the vacuum.

    Intermediate levels are capped by both the truncation level and the
    number of remaining letters (components above that can no longer
    come back to the vacuum, so dropping them is exact).
    """
    letters = list(letters)
    if params.q == -1.0:
        raise ValueError("the operator path needs q > -1; use the pair-partition path")
    if len(letters) > MAX_WORD_LEN:
        raise ValueError(f"words capped at length {MAX_WORD_LEN}")
    if len(letters) > 2 * params.max_level:
        raise ValueError(
            f"word of length {len(letters)} needs max_level >= {len(letters) / 2:.0f}")
    v = TruncatedFockVector.vacuum()
    for step, (kind, i) in enumerate(reversed(letters)):
        if not (1 <= i <= params.n):
            raise ValueError(f"letter index {i} out of range")
        remaining = len(letters) - step - 1
        v = _apply_g_parts(i, _letter_parts(kind, i, params.mu[i - 1]), v,
                           params, level_cap=remaining)
    return complex(v.coefficient(()))


def _crossings(pairs) -> int:
    cr = 0
    for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
        lo, hi = ((a1, b1), (a2, b2)) if a1 < a2 else ((a2, b2), (a1, b1))
        if lo[0] < hi[0] < lo[1] < hi[1]:
            cr += 1
    return cr


def _pair_weights(letters, mu) -> list:
    """weights[a][b] = tau(l_a l_b) for a pair of positions a < b.

    A letter is c_g g + c_s g*, with x = (g + g*) / sqrt(mu**2 + mu**-2);
    tau(g g*) = mu**2, tau(g* g) = mu**-2, and letters of different
    indices do not pair.
    """
    parts = []
    for kind, i in letters:
        m = mu[i - 1]
        nrm = 1.0 / np.sqrt(m * m + m ** -2)
        parts.append({"g": (1.0, 0.0), "g*": (0.0, 1.0), "x": (nrm, nrm)}[kind])
    weights = [[0.0] * len(letters) for _ in letters]
    for a, (_, i) in enumerate(letters):
        for b, (_, j) in enumerate(letters):
            if i == j:
                (ga, sa), (gb, sb) = parts[a], parts[b]
                weights[a][b] = ga * sb * mu[i - 1] ** 2 + sa * gb * mu[i - 1] ** -2
    return weights


def _pairing_sum(weights, q: float) -> float:
    """Sum over pair partitions of prod weights[a][b] * q**crossings."""
    if len(weights) % 2:
        return 0.0
    total = 0.0

    def rec(avail, pairs, weight):
        nonlocal total
        if not avail:
            total += weight * q ** _crossings(pairs)
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            w = weights[a][b]
            if w == 0.0:
                continue
            rec(avail[1:idx] + avail[idx + 1:], pairs + [(a, b)], weight * w)

    rec(list(range(len(weights))), [], 1.0)
    return total


def moment_pairings(letters, params: QParams) -> complex:
    """tau of the word by pair-partition enumeration with crossing weights.

    The crossing count depends on the pairing alone, so each pairing is
    enumerated once, every pair weighted by its letters' g/g* parts; x
    letters are not expanded into 2**k pure words.
    """
    letters = list(letters)
    if len(letters) > MAX_WORD_LEN:
        raise ValueError(f"words capped at length {MAX_WORD_LEN}")
    return complex(_pairing_sum(_pair_weights(letters, params.mu), params.q))


def moment(letters, params: QParams) -> complex:
    """tau_q of a word in the circular letters (see parse_word for syntax).

    Takes the operator route except at q = -1, where only the
    pair-partition route is defined (the symmetrizers degenerate).
    """
    if isinstance(letters, str):
        letters = parse_word(letters)
    if params.q == -1.0:
        return moment_pairings(letters, params)
    return moment_operator(letters, params)
