"""Hot numeric kernels, vectorized in numpy.

Creation/annihilation operators act on batches of coefficient vectors
indexed by occupation bitmasks (dimension 4**n).  Splitting the row axis
as (high bits, the operator's bit, low bits) turns the map a -> a ^ bit
into a strided view of input and output, so a letter is one broadcast
multiply-add with no fancy-index gather or scatter.  The parity of
``np.bitwise_count`` gives the commutation signs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["apply_beta_batch"]


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
    sign = 1.0 - 2.0 * (np.bitwise_count(rows & sign_mask) & 1)
    coef = (complex(weight) * sign).reshape(rows.shape + (1,) * (vec.ndim - 1))
    out.reshape(split)[:, dst] += coef * vec.reshape(split)[:, src]
    return out
