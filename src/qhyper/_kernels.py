"""Hot numeric kernels, vectorized in numpy.

Kernels here cover the two inner loops that dominate runtime:

* creation/annihilation operators acting on batches of coefficient
  vectors indexed by occupation bitmasks (dimension 4**n).  Splitting
  the row axis as (high bits, the operator's bit, low bits) turns the
  map a -> a ^ bit into a strided view of input and output, so a letter
  is one broadcast multiply-add with no fancy-index gather or scatter;
* the sparse pair-index evaluator used by the central-limit sampler,
  where states are rows of sorted letter codes with complex weights.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "popcount_table",
    "apply_beta_batch",
    "expand_ops_sparse",
]

_POPCOUNT_CACHE: dict[int, np.ndarray] = {}

# Sparse-state padding code; real letter codes stay well below this.
PAD = np.int16(30000)


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


def expand_ops_sparse(codes, coeffs, op_codes, op_create, op_weights, epsneg):
    """Apply a sum of creation/annihilation terms to a sparse state.

    ``codes`` is (N, width) int16, each row the ascending letter codes of
    one basis set padded with PAD; ``coeffs`` the matching amplitudes.
    The operator is sum_k op_weights[k] * beta(op_codes[k], op_create[k])
    with the commutation sign given by ``epsneg`` (1 where the sign
    function is -1).  Returns uncombined (codes, coeffs) contributions,
    op-major: all terms of op 0 in row order, then op 1, and so on; each
    output row is again ascending and padded.

    The output holds up to N * n_ops entries; callers combine duplicates
    (and, for large states, chunk the input rows) on top of this.
    """
    cols = list(codes.T)
    present = cols[0] == op_codes[:, None]
    for col in cols[1:]:
        present |= col == op_codes[:, None]
    ks, rs = np.nonzero(present != op_create[:, None])
    create = op_create[ks]
    if (cols[-1][rs[create]] != PAD).any():
        raise ValueError("sparse state row capacity exhausted by a creation")
    # on the (op, row) grid, state = 2 * slot + parity: the op code's slot is
    # the number of codes below it (PAD sorts above every code), the parity
    # that of those with epsneg = 1
    eps_rows = epsneg[op_codes]
    state = np.zeros(present.shape, dtype=np.uint8)
    for col in cols:
        below = col < op_codes[:, None]
        state += below.view(np.uint8) << 1
        state ^= eps_rows[:, np.where(col == PAD, 0, col)] & below
    state = state[ks, rs]
    # not in place: an in-place complex multiply can round differently
    amp = op_weights[ks] * (1.0 - 2.0 * (state & 1)) * coeffs[rs]
    # a creation inserts its code at its slot, an annihilation drops that slot
    slot, c = state >> 1, op_codes[ks]
    got = [col[rs] for col in cols] + [np.full(ks.size, PAD)]
    new = np.empty((ks.size, len(cols)), dtype=codes.dtype)
    for t in range(len(cols)):
        ins = np.where(slot == t, c, got[t - 1]) if t else c
        new[:, t] = np.where(slot > t, got[t], np.where(create, ins, got[t + 1]))
    return new, amp
