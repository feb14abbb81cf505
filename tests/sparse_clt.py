"""The sparse Fock evaluator of CLT sign-sample moments: the tests' large-m oracle.

``qhyper.clt.sample_moment`` takes a sample's moment from its Wick
pair-partition sum.  This module reaches the same number independently: it
applies the letters, as sums of creation and annihilation operators on the
pair indices, to the vacuum of the lifted Fock model and pairs two vacuum
images.  It is exact at every m the budget allows, where the dense base
model stops at n*m <= 6.

A sparse state is a pair (keys, coeffs): each basis set of ascending
letter codes c_1 < c_2 < ... is one int64 key with base-1024 digits
c_1 + 1, c_2 + 1, ..., most significant first, 0 in each empty slot (the
vacuum is key 0).  Keys are unique and ascending, sums of modulus below
1e-15 are pruned.  Moments are evaluated by splitting the word in half
and pairing the two vacuum images, which keeps the support near
(2m)**(len/2) and the keys at 3 digits (MAX_CLT_WORD = 6); 2nm <= 1022
keeps each code + 1 below 1024.
"""

from __future__ import annotations

import numpy as np

from qhyper.clt import BigSignSample, _validate_word
from qhyper.qfock import letter_parts, word_adjoint

PRUNE_TOL = 1e-15
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


def epsneg(sample: BigSignSample) -> np.ndarray:
    """(2nm, 2nm) uint8 table: 1 where the lifted sign is -1."""
    nm = sample.n * sample.m
    # absolute pair index of each code
    a = np.arange(2 * nm)
    first = a // sample.m
    second = a % sample.m
    i_abs = np.where(first < sample.n, sample.n - first, first - sample.n + 1)
    j_abs = np.where(first < sample.n, sample.m - second, second + 1)
    k = (i_abs - 1) * sample.m + (j_abs - 1)
    return (sample.signs[np.ix_(k, k)] == -1).astype(np.uint8)


def expand_ops_sparse(keys, coeffs, op_codes, op_create, op_weights, epsneg, width):
    """Apply a sum of creation/annihilation terms to a sparse state.

    A basis set of at most ``width`` letter codes c_1 < c_2 < ... is one
    int64 key with base-1024 digits c_1 + 1, c_2 + 1, ..., most significant
    first, and 0 in each empty slot.  ``keys`` holds the sets of the state,
    ``coeffs`` their amplitudes.  The operator is sum_k op_weights[k] *
    beta(op_codes[k], op_create[k]) with the commutation sign given by
    ``epsneg`` (1 where the sign function is -1).  Returns uncombined (keys,
    coeffs) contributions, op-major: all terms of op 0 in row order, then op
    1, and so on; callers combine duplicates (and chunk large expansions).
    """
    codes, op_code = np.unique(op_codes, return_inverse=True)
    col = codes.astype(np.int16)[:, None]
    # epsneg[c, v] for each op code c and the codes v below it, 0 past the last code
    eps_below = np.zeros((codes.size, 1024), dtype=np.uint8)
    eps_below[:, :epsneg.shape[1]] = epsneg[codes] * (np.arange(epsneg.shape[1]) < col)
    # on the (distinct code, row) grid: whether the row holds the code, its slot
    # (the number of row codes below it) and the parity of those with epsneg = 1
    present = np.zeros((codes.size, keys.size), dtype=bool)
    slot = np.zeros(present.shape, dtype=np.uint8)
    parity = np.zeros(present.shape, dtype=np.uint8)
    for place in range(width):
        # the code in this digit, or 1023 (above every code) where it is empty
        v = (((keys >> 10 * place) - 1) & 1023).astype(np.int16)
        present |= v == col
        slot += v < col
        parity ^= eps_below.take(v, axis=1)
    mask = present[op_code] != op_create[:, None]
    if (mask[op_create] & ((keys & 1023) != 0)).any():
        raise ValueError("sparse state row capacity exhausted by a creation")
    # new key a[r, sel] + (c + 1) * b[sel], sel = slot (creation) or width + 1 + slot
    # (annihilation); high keeps the digits above the slot: a creation puts c + 1 there and
    # shifts low down one place, an annihilation drops it and shifts the rest up one place
    shift = 10 * np.arange(width, -1, -1)
    high = keys[:, None] >> shift << shift
    low = keys[:, None] - high
    a = np.concatenate([high + (low >> 10), high + (low << 10)], axis=1)
    b = np.concatenate([1 << shift[:-1] - 10, [0], -(1 << shift)])
    tab = (codes.astype(np.int64)[:, None] + 1) * b
    slot += present * np.uint8(width + 1)
    new = a.take(np.arange(0, a.size, b.size) + slot)
    new += tab.take(np.arange(0, tab.size, b.size)[:, None] + slot)
    # op-major terms, each amplitude (weight * sign) * coefficient; the complex
    # product is not in place, which rounds differently on one element
    new = new[op_code][mask]
    amp = np.repeat(op_weights, mask.sum(axis=1)) * (1.0 - 2.0 * parity[op_code][mask])
    return new, amp * np.broadcast_to(coeffs, mask.shape)[mask]


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
    table = epsneg(sample)
    keys, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    for kind, i in reversed(letters):
        ops = _letter_ops(kind, i, mu[i - 1], sample.n, sample.m)
        keys, coeffs = _expand_combined(keys, coeffs, ops, table, width)
    return keys, coeffs


def _sparse_inner(ka, va, kb, vb) -> complex:
    """<a, b> = sum_A a_A conj(b_A) over the unique ascending keys of ``_combine``."""
    if ka is kb and va is vb:
        return complex(np.sum(va * np.conj(va)))
    _, ia, ib = np.intersect1d(ka, kb, assume_unique=True, return_indices=True)
    return complex(np.sum(va[ia] * np.conj(vb[ib])))


def sparse_moment(letters, sample: BigSignSample, mu) -> complex:
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
