"""Monte-Carlo central limit: random sign lifts and sparse moment evaluation.

The model on pair indices (i, j), 1 <= i <= n, 1 <= j <= m carries the
same construction as the base model, with the sign function sampled
i.i.d. on unordered pairs: P(+1) = (1+q)/2.  The normalized sums
s_i = m**-0.5 sum_j g_(i,j) converge in moments to the q-deformed
circular variables, which is what the report measures against the
exact oracle.

A sparse state is a pair (keys, coeffs): each basis set of ascending
letter codes c_1 < c_2 < ... is one int64 key with base-1024 digits
c_1 + 1, c_2 + 1, ..., most significant first, 0 in each empty slot (the
vacuum is key 0).  Keys are unique and ascending, sums of modulus below
1e-15 are pruned.  Moments are evaluated by splitting the word in half
and pairing the two vacuum images, which keeps the support near
(2m)**(len/2) and the keys at 3 digits (MAX_CLT_WORD = 6); 2nm <= 1022
keeps each code + 1 below 1024.  The inner loop lives in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import expand_ops_sparse
from .qfock import QParams, letter_parts, moment, parse_word, word_adjoint

__all__ = [
    "BigSignSample", "sample_signs", "pair_code", "clt_estimate",
    "convergence_report", "sample_moment", "dense_reference_moment",
    "MAX_CLT_WORD", "MAX_CLT_M",
]

MAX_CLT_WORD = 6
MAX_CLT_M = 64
PRUNE_TOL = 1e-15
# pinned single-sample moments per convergence_report row
TRAJECTORIES = 3
# uncombined expansion entries made at a time by _expand_combined
EXPAND_TERMS = 1 << 22


def pair_code(i: int, j: int, n: int, m: int) -> int:
    """Order-preserving code of the signed pair index (i, j) in [0, 2nm).

    The total order is lexicographic on (first, second); negative pairs
    (-i, -j) occupy codes [0, nm), positive ones [nm, 2nm).
    """
    if not (1 <= abs(i) <= n and 1 <= abs(j) <= m) or (i > 0) != (j > 0):
        raise ValueError(f"bad pair index ({i}, {j})")
    if i > 0:
        return n * m + (i - 1) * m + (j - 1)
    return (n - (-i)) * m + (m - (-j))


@dataclass
class BigSignSample:
    """One draw of the lifted sign function on absolute pair indices."""

    n: int
    m: int
    q: float
    seed: int
    sample_index: int
    signs: np.ndarray  # (nm, nm) int8, symmetric, -1 on the diagonal
    _epsneg: np.ndarray = field(default=None, repr=False)

    def epsneg(self) -> np.ndarray:
        """(2nm, 2nm) uint8 table: 1 where the lifted sign is -1."""
        if self._epsneg is None:
            nm = self.n * self.m
            # absolute pair index of each code
            a = np.arange(2 * nm)
            first = a // self.m
            second = a % self.m
            i_abs = np.where(first < self.n, self.n - first, first - self.n + 1)
            j_abs = np.where(first < self.n, self.m - second, second + 1)
            k = (i_abs - 1) * self.m + (j_abs - 1)
            self._epsneg = (self.signs[np.ix_(k, k)] == -1).astype(np.uint8)
        return self._epsneg


def sample_signs(q: float, n: int, m: int, seed: int, sample_index: int = 0) -> BigSignSample:
    """i.i.d. signs with P(+1) = (1+q)/2, Philox-keyed by (seed, sample_index).

    The whole upper triangle is drawn in one fixed-order pass, so the
    result depends only on (q, n, m, seed, sample_index), not on which
    samples were drawn before it.
    """
    if not (-1.0 <= q < 1.0):
        raise ValueError(f"q must be in [-1, 1), got {q}")
    nm = n * m
    rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(sample_index)]))
    iu = np.triu_indices(nm, k=1)
    draws = np.where(rng.random(iu[0].size) < (1.0 + q) / 2.0, 1, -1).astype(np.int8)
    signs = -np.eye(nm, dtype=np.int8)
    signs[iu] = draws
    signs[(iu[1], iu[0])] = draws
    return BigSignSample(n=n, m=m, q=q, seed=seed, sample_index=sample_index, signs=signs)


# ============================================================================
# sparse states
# ============================================================================


def _combine(keys: np.ndarray, coeffs: np.ndarray, prune: float = PRUNE_TOL):
    """Sum the amplitudes of equal keys and drop sums of modulus <= prune.

    The keys come out ascending, one each.  Equal keys stay in input order,
    so each sum adds its terms in the order they came.
    """
    if coeffs.size == 0:
        return keys, coeffs
    # a stable sort as one plain sort of the distinct key * 2**bits + position
    bits = keys.size.bit_length()
    if int(keys.max()) >> (63 - bits):
        raise ValueError("keys too large to sort with their positions")
    packed = keys << bits
    packed |= np.arange(keys.size)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    start = np.concatenate(([True], packed[1:] != packed[:-1]))
    uniq = packed.take(np.flatnonzero(start))
    del packed
    run = np.cumsum(start)
    run -= 1
    agg = np.empty(uniq.size, dtype=np.complex128)
    agg.real = np.bincount(run, coeffs.real[order], uniq.size)
    agg.imag = np.bincount(run, coeffs.imag[order], uniq.size)
    keep = np.abs(agg) > prune
    return uniq[keep], agg[keep]


def _letter_ops(kind: str, i: int, mu_i: float, n: int, m: int):
    """Operator list (codes, create flags, weights) of s_i, s*_i, or x_i.

    Per j = 1..m the pairs (i, j) and (-i, -j) alternate, with the codes
    of ``pair_code``.
    """
    if not (1 <= i <= n and m >= 1):
        raise ValueError(f"bad pair index ({i}, 1..{m}) for n={n}")
    # the g part creates at (i, j) and annihilates at (-i, -j), the g* part the reverse
    parts = [(star, c) for star, c in zip((False, True), letter_parts(kind, mu_i)) if c]
    j = np.arange(m)
    codes = np.stack([n * m + (i - 1) * m + j, (n - i) * m + (m - 1 - j)], axis=1)
    create = np.concatenate([np.tile([not star, star], m) for star, _ in parts])
    w = 1.0 / np.sqrt(m)
    weights = np.concatenate([np.tile([c * w / mu_i, c * w * mu_i], m) for _, c in parts])
    return (np.tile(codes.reshape(-1), len(parts)).astype(np.int16), create,
            weights.astype(np.complex128))


def _expand_combined(keys, coeffs, ops, epsneg, width):
    """One operator application with duplicate combining, chunked by operator terms.

    A chunk keeps the uncombined expansion near EXPAND_TERMS entries.  Its
    entries, op-major as in one whole expansion, are combined after the
    running sums, pruned only at the end, so each sum adds its terms in the
    unchunked order and the result is bit-identical for any chunk size.
    """
    step = max(1, EXPAND_TERMS // max(1, keys.size))
    if ops[0].shape[0] <= step:
        return _combine(*expand_ops_sparse(keys, coeffs, *ops, epsneg, width))
    acc_k, acc_v = keys[:0], coeffs[:0]
    for lo in range(0, ops[0].shape[0], step):
        k, v = expand_ops_sparse(keys, coeffs, *(op[lo:lo + step] for op in ops), epsneg,
                                 width)
        # a sum dropped at exactly 0 changes none of the sums it would add to
        acc_k, acc_v = _combine(np.concatenate([acc_k, k]), np.concatenate([acc_v, v]),
                                prune=0.0)
    keep = np.abs(acc_v) > PRUNE_TOL
    return acc_k[keep], acc_v[keep]


def _apply_word(letters, sample: BigSignSample, mu, width: int):
    """Apply the letters right-to-left to the sparse vacuum."""
    epsneg = sample.epsneg()
    keys, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    for kind, i in reversed(letters):
        ops = _letter_ops(kind, i, mu[i - 1], sample.n, sample.m)
        keys, coeffs = _expand_combined(keys, coeffs, ops, epsneg, width)
    return keys, coeffs


def _sparse_inner(ka, va, kb, vb) -> complex:
    """<a, b> = sum_A a_A conj(b_A) over the unique ascending keys of ``_combine``."""
    if ka is kb and va is vb:
        return complex(np.sum(va * np.conj(va)))
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    return complex(np.sum(va[ia] * np.conj(vb[ib])))


def _validate_word(letters, n: int, m: int):
    if len(letters) > MAX_CLT_WORD or not (1 <= m <= MAX_CLT_M):
        raise ValueError(
            f"budget: word length <= {MAX_CLT_WORD} and 1 <= m <= {MAX_CLT_M}, got m={m}")
    for kind, i in letters:
        if not (1 <= i <= n):
            raise ValueError(f"letter index {i} out of range for n={n}")
        if kind not in ("g", "g*", "x"):
            raise ValueError(f"unknown letter kind {kind!r}")
    if 2 * n * m > 1022:
        raise ValueError(
            f"budget: 2*n*m <= 1022 keeps letter codes packable, got n={n}, m={m}")


def sample_moment(letters, sample: BigSignSample, mu) -> complex:
    """tau of the word in s_i / s*_i / x_i letters for one fixed sign sample.

    The word W = L R is split in half and tau(W) = <R vac, L* vac>,
    which caps the sparse support at the half-word depth.
    """
    letters = list(letters)
    _validate_word(letters, sample.n, sample.m)
    half = len(letters) // 2
    width = max(1, max(half, len(letters) - half))
    right = _apply_word(letters[half:], sample, mu, width)
    if letters[:half] == letters[half:] and \
            letters[:half] == word_adjoint(letters[:half]):
        left = right
    else:
        left = _apply_word(word_adjoint(letters[:half]), sample, mu, width)
    return _sparse_inner(*right, *left)


def _prepare(letters, mu, samples: int):
    """Parsed letters, mu as a float tuple, and n, for the estimators."""
    if isinstance(letters, str):
        letters = parse_word(letters)
    mu = tuple(float(x) for x in (mu if np.iterable(mu) else (mu,)))
    n = max(i for _, i in letters)
    if len(mu) < n:
        raise ValueError(f"need {n} mu values")
    if not all(1.0 <= m < np.inf for m in mu):
        raise ValueError(f"mu entries must be finite and >= 1, got {mu}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    return letters, mu, n


def _estimate(letters, q: float, mu, n: int, m: int, samples: int, seed: int):
    """Per-sample moments of samples 0..samples-1, their mean and standard error."""
    vals = np.array([sample_moment(letters, sample_signs(q, n, m, seed, sample_index=s), mu)
                     for s in range(samples)], dtype=np.complex128)
    var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1) if samples > 1 else 0.0
    return vals, complex(vals.mean()), float(np.sqrt(var / samples))


def clt_estimate(letters, q: float, mu, m: int, samples: int, seed: int):
    """Monte-Carlo mean and standard error of tau over sign samples."""
    letters, mu, n = _prepare(letters, mu, samples)
    return _estimate(letters, q, mu, n, m, samples, seed)[1:]


def convergence_report(letters, q: float, mu, m_list, samples: int, seed: int) -> list:
    """Rows of (m, mean, stderr, oracle, abs err) against the exact oracle.

    The limit statement holds sample by sample, so each row also carries
    the raw moments of the first ``TRAJECTORIES`` pinned sign samples
    ("traj", at most ``samples`` of them), not just the average.
    """
    letters, mu, n = _prepare(letters, mu, samples)
    for m in m_list:
        _validate_word(letters, n, int(m))
    oracle = moment(letters, QParams(q=q, n=n, mu=mu[:n]))
    rows = []
    for m in m_list:
        vals, mean, stderr = _estimate(letters, q, mu, n, int(m), samples, seed)
        rows.append({"m": int(m), "mean": mean, "stderr": stderr,
                     "oracle": oracle, "abs_err": abs(mean - oracle),
                     "traj": [complex(v) for v in vals[:TRAJECTORIES]]})
    return rows


def dense_reference_moment(letters, sample: BigSignSample, mu) -> complex:
    """Dense cross-check: evaluate the same moment in the flat base model.

    The lifted model with nm total pair indices is itself a base model
    whose k-th gaussian is g_(i,j) with k = (i-1) m + j, so nm is bounded
    by the base model's MAX_N.
    """
    from .babyfock import BabyFock
    from .signs import ModelParams, SignTable

    n, m = sample.n, sample.m
    nm = n * m
    table = SignTable.from_dict(
        {(k, l): int(sample.signs[k - 1, l - 1]) for k in range(1, nm + 1)
         for l in range(k + 1, nm + 1)}, nm)
    flat_mu = tuple(float(mu[i - 1]) for i in range(1, n + 1) for _ in range(m))
    model = BabyFock(ModelParams(n=nm, mu=flat_mu, signs=table))
    vec = model.vacuum_vector()
    for kind, i in reversed(list(letters)):
        mu_i = mu[i - 1]
        flats = [(i - 1) * m + j for j in range(1, m + 1)]
        out = np.zeros_like(vec)
        for k in flats:
            if kind in ("g", "x"):
                out += model.apply_gamma(k, vec)
            if kind in ("g*", "x"):
                out += model.apply_gamma_star(k, vec)
        out /= np.sqrt(m)
        if kind == "x":
            out /= np.sqrt(mu_i ** 2 + mu_i ** -2)
        vec = out
    return complex(vec[0])
