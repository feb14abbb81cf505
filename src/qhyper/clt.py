"""Monte-Carlo central limit: random sign lifts and their Wick moments.

The model on pair indices (i, j), 1 <= i <= n, 1 <= j <= m carries the
same construction as the base model, with the sign function sampled
i.i.d. on unordered pairs: P(+1) = (1+q)/2.  The normalized sums
s_i = m**-0.5 sum_j g_(i,j) converge in moments to the q-deformed
circular variables, which is what the report measures against the
exact oracle.

For one sign sample a moment is a finite Wick sum: over the pair
partitions of the word, each pair on one pair index, each crossing of
two pairs weighted by the sample's sign between their pair indices.
The partitions are enumerated once per (word, weights) and grouped by
crossing graph; a stack of samples then costs one contraction of its sign
matrices per group.  The budget (MAX_CLT_WORD letters, 1 <= m <= MAX_CLT_M,
2nm <= 1022) keeps every accepted size within reach of the tests'
independent sparse Fock oracle.  ``convergence_report`` gives each m's mean
and standard error over the sign samples; the ``clt`` command reports them.
``dense_reference_moment`` evaluates one sample's moment in the 2**nm irrep
of the flat base model; no command calls it, but the benchmark's ``campaign``
checks the ``clt`` mean against it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .qfock import (QParams, _crossing_pairs, _pair_weights, _pairings, letter_parts, moment,
                    parse_word)
from .signs import check_weights

__all__ = [
    "BigSignSample", "sample_signs", "convergence_report", "sample_moment",
    "dense_reference_moment", "MAX_CLT_WORD", "MAX_CLT_M",
]

MAX_CLT_WORD = 6
MAX_CLT_M = 64
# pinned single-sample moments per convergence_report row
TRAJECTORIES = 3


@dataclass
class BigSignSample:
    """One draw of the lifted sign function on absolute pair indices."""

    n: int
    m: int
    q: float
    seed: int
    sample_index: int
    signs: np.ndarray  # (nm, nm) int8, symmetric, -1 on the diagonal


def sample_signs(q: float, n: int, m: int, seed: int, sample_index: int = 0) -> BigSignSample:
    """i.i.d. signs with P(+1) = (1+q)/2, Philox-keyed by (seed, sample_index).

    The whole upper triangle is drawn in one fixed-order pass, so the
    result depends only on (q, n, m, seed, sample_index), not on which
    samples were drawn before it.
    """
    (signs,) = _draw_signs(q, n * m, seed, [sample_index])
    return BigSignSample(n=n, m=m, q=q, seed=seed, sample_index=sample_index, signs=signs)


def _draw_signs(q: float, nm: int, seed: int, indices) -> np.ndarray:
    """The (len(indices), nm, nm) int8 stack of the samples ``sample_signs`` draws."""
    if not (-1.0 <= q < 1.0):
        raise ValueError(f"q must be in [-1, 1), got {q}")
    iu = np.triu_indices(nm, k=1)
    # one generator, set to the fresh state of key (seed, s) for each sample: setting a
    # state took 5 us, building a Philox 19 us (it first seeds a SeedSequence from the OS)
    bits = np.random.Philox(key=[np.uint64(seed), np.uint64(0)])
    fresh, rng = bits.state, np.random.Generator(bits)
    plus = np.empty((len(indices), iu[0].size), dtype=np.bool_)
    for row, s in zip(plus, indices):
        fresh["state"]["key"][1] = s
        bits.state = fresh
        row[:] = rng.random(row.size) < (1.0 + q) / 2.0
    signs = np.empty((len(indices), nm, nm), dtype=np.int8)
    signs[:, iu[0], iu[1]] = signs[:, iu[1], iu[0]] = np.where(plus, np.int8(1), np.int8(-1))
    signs[:, range(nm), range(nm)] = -1
    return signs


def _validate_word(letters, n: int, m: int):
    if len(letters) > MAX_CLT_WORD:
        raise ValueError(
            f"budget: word length <= {MAX_CLT_WORD}, got a word of {len(letters)} letters")
    if not (1 <= m <= MAX_CLT_M):
        raise ValueError(f"budget: 1 <= m <= {MAX_CLT_M}, got m={m}")
    for kind, i in letters:
        if not (1 <= i <= n):
            raise ValueError(f"letter index {i} out of range for n={n}")
        if kind not in ("g", "g*", "x"):
            raise ValueError(f"unknown letter kind {kind!r}")
    if 2 * n * m > 1022:
        raise ValueError(f"budget: 2*n*m <= 1022, got 2*n*m = {2 * n * m} (n={n}, m={m})")


@functools.lru_cache(maxsize=64)
def _wick_classes(letters: tuple, mu: tuple) -> tuple:
    """(weight, free, indices, edges) per class of the word's pair partitions.

    A pair partition of non-zero weight prod tau(L_a L_b) is classed by the
    letter index of each pair that crosses another and by its crossing graph
    ``edges`` on those pairs, relabelled to the least (indices, edges) over
    their orderings; ``free`` counts the pairs that cross none.  Partitions of
    one class have the same sum over pair indices, so their weights add.
    """
    classes = {}
    for pairs, weight, _ in _pairings(_pair_weights(letters, mu)):
        cross = _crossing_pairs(pairs)
        crossed = sorted({p for edge in cross for p in edge})
        key = min((tuple(letters[pairs[p][0]][1] for p in order),
                   tuple(sorted(tuple(sorted((order.index(p), order.index(r))))
                                for p, r in cross)))
                  for order in permutations(crossed))
        key = (len(pairs) - len(crossed),) + key
        classes[key] = classes.get(key, 0.0) + weight
    return tuple((weight,) + key for key, weight in classes.items())


def sample_moment(letters, sample: BigSignSample, mu) -> complex:
    """tau of the word in s_i / s*_i / x_i letters for one fixed sign sample.

    tau = m**-k sum_pi prod_pairs tau(L_a L_b) sum_j prod_crossings E[(i_P, j_P),
    (i_Q, j_Q)] over the pair partitions pi of the 2k letters: each pair P joins
    two letters of one index i_P on one pair index (i_P, j_P), j_P = 1..m, and
    each crossing of pairs P, Q contributes the sample's sign between their pair
    indices (-1 on the diagonal).  Per class of ``_wick_classes`` the sum over
    the j is one einsum of m x m blocks of the signs over the crossing graph,
    times m per pair that crosses none; on +-1 entries every such sum is an
    exact integer.
    """
    letters = list(letters)
    _validate_word(letters, sample.n, sample.m)
    (total,) = _stack_moments(letters, sample.signs[None], sample.m, mu, {})
    return complex(total)


# the sample axis of a stack's einsum; the pairs of a word of at most MAX_CLT_WORD letters
# take the labels 0, 1, 2
_SAMPLES = 51


def _stack_moments(letters, signs, m: int, mu, paths: dict) -> np.ndarray:
    """The moments (float64) of ``sample_moment`` for each (nm, nm) sign matrix of a stack.

    Each class's sum over the j is one einsum over the whole stack, its contraction path
    found on the first stack and kept in ``paths`` for the stacks after it; every sum is an
    exact integer, so each sample's moment is the one ``sample_moment`` gives it alone.
    """
    signs = signs.astype(np.float64)
    total = np.zeros(len(signs))
    for c, (weight, free, indices, edges) in enumerate(
            _wick_classes(tuple(letters), tuple(float(x) for x in mu))):
        if not edges:
            total += weight * m ** free
            continue
        operands = [x for p, r in edges for x in (
            signs[:, (indices[p] - 1) * m:indices[p] * m, (indices[r] - 1) * m:indices[r] * m],
            [_SAMPLES, p, r])]
        if c not in paths:
            paths[c] = np.einsum_path(*operands, [_SAMPLES], optimize="greedy")[0]
        total += weight * m ** free * np.einsum(*operands, [_SAMPLES], optimize=paths[c])
    return total / m ** (len(letters) // 2)


# convergence_report draws and evaluates its sign samples in stacks of at most STACK_BYTES,
# at STACK_ENTRY_BYTES per entry of a sample's (nm, nm) matrix: its int8 and float64 signs
# and the einsums' (m, m) intermediates, 24.0 bytes traced per entry for (s+s*)^6 at m = 64.
# 1 MiB holds 10 samples there: 200 samples took 29 ms, 26 at 2 MiB, 38 at 0.5 MiB and 33 at
# 8 MiB (past the 2 MiB L2 cache); with every sample in one stack, 2000 samples peaked at
# 231 MB resident
STACK_BYTES = 1 << 20
STACK_ENTRY_BYTES = 24


def convergence_report(letters, q: float, mu, m_list, samples: int, seed: int) -> list:
    """Rows of (m, mean, stderr, oracle, abs err) against the exact oracle.

    Row m averages the moments of sign samples 0..samples-1, drawn and evaluated
    as stacks of as many samples as ``STACK_BYTES`` holds.  The limit statement
    holds sample by sample, so each row also carries the raw moments of the
    first ``TRAJECTORIES`` pinned sign samples ("traj", at most ``samples`` of
    them), not just the average.
    """
    if isinstance(letters, str):
        letters = parse_word(letters)
    mu = check_weights(mu if np.iterable(mu) else (mu,))
    n = max(i for _, i in letters)
    if len(mu) < n:
        raise ValueError(f"need {n} mu values")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    for m in m_list:
        _validate_word(letters, n, int(m))
    oracle = moment(letters, QParams(q=q, n=n, mu=mu[:n]))
    rows = []
    for m in map(int, m_list):
        vals = np.zeros(samples, dtype=np.complex128)
        size = max(1, STACK_BYTES // (STACK_ENTRY_BYTES * (n * m) ** 2))
        paths = {}
        for start in range(0, samples, size):
            stop = min(start + size, samples)
            vals.real[start:stop] = _stack_moments(
                letters, _draw_signs(q, n * m, seed, range(start, stop)), m, mu, paths)
        var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1) if samples > 1 else 0.0
        mean = complex(vals.mean())
        rows.append({"m": m, "mean": mean, "stderr": float(np.sqrt(var / samples)),
                     "oracle": oracle, "abs_err": abs(mean - oracle),
                     "traj": [complex(v) for v in vals[:TRAJECTORIES]]})
    return rows


def dense_reference_moment(letters, sample: BigSignSample, mu) -> complex:
    """Dense cross-check: evaluate the same moment in the flat base model.

    The lifted model with nm total pair indices is itself a base model
    whose k-th gaussian is g_(i,j) with k = (i-1) m + j, so nm is bounded
    by the base model's MAX_N.  The moment is trace(rho X) in that model's
    2**nm irrep, X the product of the letters c_g s_i + c_s s*_i with
    s_i = m**-0.5 sum_j pi(g_(i,j)).
    """
    from .babyfock import GEN, BabyFock
    from .signs import ModelParams, SignTable

    n, m = sample.n, sample.m
    nm = n * m
    table = SignTable.from_dict(
        {(k, l): int(sample.signs[k - 1, l - 1]) for k in range(1, nm + 1)
         for l in range(k + 1, nm + 1)}, nm)
    flat_mu = tuple(float(mu[i - 1]) for i in range(1, n + 1) for _ in range(m))
    model = BabyFock(ModelParams(n=nm, mu=flat_mu, signs=table))
    letters = list(letters)
    s = {i: sum(model.irrep_letter(GEN, (i - 1) * m + j) for j in range(1, m + 1)) / np.sqrt(m)
         for i in {i for _, i in letters}}
    X = np.eye(1 << nm)
    for kind, i in letters:
        c_g, c_s = letter_parts(kind, mu[i - 1])
        X = X @ (c_g * s[i] + c_s * s[i].T)
    return complex(np.sum(model.irrep()[2] * np.diag(X)))
