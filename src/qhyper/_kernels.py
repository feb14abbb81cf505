"""Hot numeric kernels, vectorized in numpy.

Creation/annihilation operators act on batches of coefficient vectors
indexed by occupation bitmasks (dimension 4**n).  Splitting the row axis
as (high bits, the operator's bit, low bits) turns the map a -> a ^ bit
into a strided view of input and output, so a letter is one broadcast
multiply-add with no fancy-index gather or scatter.  The popcount table
gives the commutation signs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["popcount_table", "apply_beta_batch"]

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
