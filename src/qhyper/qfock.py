"""Exact moment oracle on the q-deformed Fock space.

A vector is a dict from label words to amplitudes; the level of a word
is its length, and the vacuum is {(): 1}.  Creation prepends a label,
annihilation removes matching labels with weights q**(position).
Generalized circular letters expand as
g_i = mu_i**-1 l(e_i) + mu_i l*(e_{-i}).  Moments are computed two
independent ways: by operator application to the vacuum, and by a
pair-partition sum with crossing weight q**crossings; the two must
agree (``fock-moment`` reports their disagreement).  The q-inner product
and its Gram matrices, which pin the annihilation convention against the
abstract definition by adjointness, are the tests' reference, in
``tests/paper_reference.py``.

Word expressions admit the token (g+g*), the real combination divided
by sqrt(mu**2 + mu**-2) so that its square has moment exactly one; raw
letters g, g* keep the circular normalization.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .signs import check_weights

__all__ = [
    "QParams", "create_apply", "annihilate_apply", "letter_parts", "moment",
    "moment_operator", "moment_pairings", "parse_word",
]

MAX_WORD_LEN = 10


@dataclass(frozen=True)
class QParams:
    """Deformation q in [-1, 1), number of letter indices, weights."""

    q: float
    n: int = 1
    mu: tuple = (1.0,)

    def __post_init__(self):
        if not (-1.0 <= self.q < 1.0):
            raise ValueError(f"q must be in [-1, 1), got {self.q}")
        object.__setattr__(self, "mu", check_weights(self.mu))
        if len(self.mu) != self.n:
            raise ValueError(f"need {self.n} mu values, got {len(self.mu)}")


def create_apply(label: int, v: dict, params: QParams) -> dict:
    """Left creation by the basis label."""
    if not (1 <= abs(label) <= params.n):
        raise ValueError(f"label {label} out of range")
    return {(label,) + w: c for w, c in v.items()}


def annihilate_apply(label: int, v: dict, params: QParams) -> dict:
    """q-annihilation: remove each matching label with weight q**(position)."""
    if not (1 <= abs(label) <= params.n):
        raise ValueError(f"label {label} out of range")
    q = params.q
    out = {}
    for w, c in v.items():
        for pos, lab in enumerate(w):
            if lab != label:
                continue
            nw = w[:pos] + w[pos + 1:]
            out[nw] = out.get(nw, 0.0) + (q ** pos) * c
    return out


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


def letter_parts(kind: str, mu: float) -> tuple:
    """(c_g, c_s) of the letter c_g g + c_s g* of weight mu.

    x is the real combination (g + g*) / sqrt(mu**2 + mu**-2).
    """
    if kind == "g":
        return 1.0, 0.0
    if kind == "g*":
        return 0.0, 1.0
    if kind == "x":
        nrm = 1.0 / np.sqrt(mu ** 2 + mu ** -2)
        return nrm, nrm
    raise ValueError(f"unknown letter kind {kind!r}")


def _checked(letters, params: QParams) -> list:
    """The letters as a list, at most MAX_WORD_LEN of them, each index in 1..n."""
    letters = list(letters)
    if len(letters) > MAX_WORD_LEN:
        raise ValueError(f"words capped at length {MAX_WORD_LEN}")
    for _, i in letters:
        if not (1 <= i <= params.n):
            raise ValueError(f"letter index {i} out of range")
    return letters


def moment_operator(letters, params: QParams) -> complex:
    """tau of the word by right-to-left application to the vacuum.

    g_i = mu**-1 l(e_i) + mu l*(e_{-i}) and g*_i = mu**-1 l*(e_i) + mu l(e_{-i}).
    After each letter only words no longer than the letters still to apply
    are kept (longer ones can no longer come back to the vacuum, so
    dropping them is exact); creation skips the words already at that cap.
    """
    if params.q == -1.0:
        raise ValueError("the operator path needs q > -1; use the pair-partition path")
    letters = _checked(letters, params)
    v = {(): 1.0 + 0.0j}
    for remaining, (kind, i) in reversed(list(enumerate(letters))):
        mu_i = params.mu[i - 1]
        c_g, c_s = letter_parts(kind, mu_i)
        low = {w: c for w, c in v.items() if len(w) < remaining}
        out = {}
        for weight, label, create in ((c_g * (1.0 / mu_i), i, True), (c_g * mu_i, -i, False),
                                      (c_s * (1.0 / mu_i), i, False), (c_s * mu_i, -i, True)):
            if weight == 0.0:
                continue
            piece = (create_apply(label, low, params) if create
                     else annihilate_apply(label, v, params))
            for w, c in piece.items():
                out[w] = out.get(w, 0.0) + weight * c
        v = {w: c for w, c in out.items() if abs(c) > 0.0}
    return complex(v.get((), 0.0))


def _crossing_pairs(pairs) -> list:
    """The index pairs (p, r), p < r, of the crossing pairs in a list of pairs (a, b), a < b."""
    return [(p, r) for (p, (a1, b1)), (r, (a2, b2)) in itertools.combinations(enumerate(pairs), 2)
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1]


def _pair_weights(letters, mu) -> list:
    """weights[a][b] = tau(l_a l_b) for a pair of positions a < b.

    A letter is c_g g + c_s g* (``letter_parts``); tau(g g*) = mu**2,
    tau(g* g) = mu**-2, and letters of different indices do not pair.
    """
    parts = [letter_parts(kind, mu[i - 1]) for kind, i in letters]
    weights = [[0.0] * len(letters) for _ in letters]
    for a, (_, i) in enumerate(letters):
        for b, (_, j) in enumerate(letters):
            if i == j:
                (ga, sa), (gb, sb) = parts[a], parts[b]
                weights[a][b] = ga * sb * mu[i - 1] ** 2 + sa * gb * mu[i - 1] ** -2
    return weights


def _pairings(weights):
    """Each pair partition of the positions with non-zero weight, as (pairs, weight).

    The pairs (a, b), a < b, come ordered by a; the weight is the product of
    weights[a][b] over them, taken in that order.
    """

    def rec(avail, pairs, weight):
        if not avail:
            yield pairs, weight
            return
        a = avail[0]
        for idx in range(1, len(avail)):
            b = avail[idx]
            w = weights[a][b]
            if w == 0.0:
                continue
            yield from rec(avail[1:idx] + avail[idx + 1:], pairs + [(a, b)], weight * w)

    return rec(list(range(len(weights))), [], 1.0)


def _pairing_sum(weights, q: float) -> float:
    """Sum over pair partitions of prod weights[a][b] * q**crossings."""
    if len(weights) % 2:
        return 0.0
    total = 0.0
    for pairs, weight in _pairings(weights):
        total += weight * q ** len(_crossing_pairs(pairs))
    return total


def moment_pairings(letters, params: QParams) -> complex:
    """tau of the word by pair-partition enumeration with crossing weights.

    The crossing count depends on the pairing alone, so each pairing is
    enumerated once, every pair weighted by its letters' g/g* parts; x
    letters are not expanded into 2**k pure words.
    """
    letters = _checked(letters, params)
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
