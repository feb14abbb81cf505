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
crossing graph; a sample then costs one small contraction of its sign
matrix per group.  The budget (MAX_CLT_WORD letters, 1 <= m <= MAX_CLT_M,
2nm <= 1022) keeps every accepted size within reach of the tests'
independent sparse Fock oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .qfock import QParams, _crossing_pairs, _pair_weights, _pairings, moment, parse_word
from .signs import check_weights

__all__ = [
    "BigSignSample", "sample_signs", "clt_estimate",
    "convergence_report", "sample_moment", "dense_reference_moment",
    "MAX_CLT_WORD", "MAX_CLT_M",
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
    for pairs, weight in _pairings(_pair_weights(letters, mu)):
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
    m, total = sample.m, 0.0
    signs = sample.signs.astype(np.float64)
    for weight, free, indices, edges in _wick_classes(tuple(letters),
                                                     tuple(float(x) for x in mu)):
        operands = [x for p, r in edges for x in (
            signs[(indices[p] - 1) * m:indices[p] * m, (indices[r] - 1) * m:indices[r] * m],
            [p, r])]
        total += weight * m ** free * (np.einsum(*operands, []) if edges else 1.0)
    return complex(total / m ** (len(letters) // 2))


def _prepare(letters, mu, samples: int):
    """Parsed letters, mu as a float tuple, and n, for the estimators."""
    if isinstance(letters, str):
        letters = parse_word(letters)
    mu = check_weights(mu if np.iterable(mu) else (mu,))
    n = max(i for _, i in letters)
    if len(mu) < n:
        raise ValueError(f"need {n} mu values")
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
