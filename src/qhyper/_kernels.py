"""Hot numeric kernels, vectorized in numpy.

Kernels here cover the two inner loops that dominate runtime:

* creation/annihilation operators acting on batches of coefficient
  vectors indexed by occupation bitmasks (dimension 4**n).  Splitting
  the row axis as (high bits, the operator's bit, low bits) turns the
  map a -> a ^ bit into a strided view of input and output, so a letter
  is one broadcast multiply-add with no fancy-index gather or scatter;
* the sparse pair-index evaluator used by the central-limit sampler,
  where a state is packed int64 keys of letter-code sets with complex
  weights, and each output key is written by digit arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["popcount_table", "apply_beta_batch", "expand_ops_sparse"]

_POPCOUNT_CACHE: dict[int, np.ndarray] = {}


def popcount_table(nbits: int) -> np.ndarray:
    """uint8 table: popcount_table(n)[x] = number of set bits of x, x < 2**n."""
    tab = _POPCOUNT_CACHE.get(nbits)
    if tab is None:
        tab = np.zeros(1, dtype=np.uint8)
        # x in [2**k, 2**(k+1)) has one more set bit than x - 2**k
        for _ in range(nbits):
            tab = np.concatenate([tab, tab + 1])
        _POPCOUNT_CACHE[nbits] = tab
    return tab


# ============================================================================
# bitmask basis kernels (baby Fock)
# ============================================================================


def apply_beta_batch(vec, bit, sign_mask, create, weight, out=None):
    """Accumulate weight * beta(vec) into out for one signed index.

    ``vec`` has shape (dim, ...) complex128; basis row ``a`` is the
    occupation bitmask.  Creation maps a -> a|bit when the bit is free,
    annihilation maps a -> a&~bit when it is set, both with the sign
    (-1)**popcount(a & sign_mask).  ``out`` may be any (dim, ...) view;
    it is written through.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    if out is None:
        out = np.zeros(vec.shape, dtype=np.complex128)
    dim = vec.shape[0]
    # row a = (hi, b, lo) with b the bit: splitting axis 0 is a view
    split = (dim // (2 * bit), 2, bit) + vec.shape[1:]
    src, dst = (0, 1) if create else (1, 0)
    rows = np.arange(dim).reshape(split[:3])[:, src]
    popcount = popcount_table(max(1, int(dim - 1).bit_length()))
    sign = 1.0 - 2.0 * (popcount[rows & sign_mask] & 1)
    coef = (complex(weight) * sign).reshape(rows.shape + (1,) * (vec.ndim - 1))
    out.reshape(split)[:, dst] += coef * vec.reshape(split)[:, src]
    return out


# ============================================================================
# sparse pair-index kernels (central limit sampler)
# ============================================================================


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
