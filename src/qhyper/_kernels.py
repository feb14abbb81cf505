"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import: numba is used when it is installed
and the environment variable ``QHYPER_NUMBA`` is not ``0``/``false``.
Both paths implement identical semantics and are cross-checked in the
test suite.

Kernels here cover the two inner loops that dominate runtime:

* creation/annihilation operators acting on batches of coefficient
  vectors indexed by occupation bitmasks (dimension 4**n), and
* the sparse pair-index evaluator used by the central-limit sampler,
  where states are rows of sorted letter codes with complex weights.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USE_NUMBA",
    "HAVE_NUMBA",
    "parity_table",
    "apply_beta_batch",
    "expand_ops_sparse",
]


def _numba_enabled() -> bool:
    flag = os.environ.get("QHYPER_NUMBA", "").strip().lower()
    if flag in ("0", "false", "off", "no"):
        return False
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - mirror has numba preinstalled
    HAVE_NUMBA = False

USE_NUMBA = _numba_enabled()

_PARITY_CACHE: dict[int, np.ndarray] = {}

# Sparse-state padding code; real letter codes stay well below this.
PAD = np.int16(30000)


def parity_table(nbits: int) -> np.ndarray:
    """uint8 table: parity_table(n)[x] = popcount(x) mod 2 for x < 2**n."""
    tab = _PARITY_CACHE.get(nbits)
    if tab is None:
        x = np.arange(1 << nbits, dtype=np.uint32)
        bits = np.zeros_like(x)
        while x.any():
            bits ^= x & 1
            x >>= 1
        tab = bits.astype(np.uint8)
        _PARITY_CACHE[nbits] = tab
    return tab


# ============================================================================
# bitmask basis kernels (baby Fock)
# ============================================================================


def _np_apply_beta(out, vec, bit, sign_mask, create, weight, parity):
    dim = vec.shape[0]
    idx = np.arange(dim)
    if create:
        src = idx[(idx & bit) == 0]
    else:
        src = idx[(idx & bit) != 0]
    tgt = src ^ bit
    sign = 1.0 - 2.0 * parity[src & sign_mask]
    out[tgt] += (weight * sign)[:, None] * vec[src]
    return out


if HAVE_NUMBA:

    @numba.njit(cache=True)
    def _nb_apply_beta(out, vec, bit, sign_mask, create, weight, parity):
        dim = vec.shape[0]
        ncol = vec.shape[1]
        for a in range(dim):
            occupied = (a & bit) != 0
            if create == occupied:
                continue
            t = a ^ bit
            w = weight if parity[a & sign_mask] == 0 else -weight
            for c in range(ncol):
                out[t, c] += w * vec[a, c]
        return out


def apply_beta_batch(vec, bit, sign_mask, create, weight, out=None):
    """Accumulate weight * beta(vec) into out for one signed index.

    ``vec`` has shape (dim, ncols) complex128; basis row ``a`` is the
    occupation bitmask.  Creation maps a -> a|bit when the bit is free,
    annihilation maps a -> a&~bit when it is set, both with the sign
    (-1)**popcount(a & sign_mask).
    """
    vec = np.ascontiguousarray(vec, dtype=np.complex128)
    squeeze = vec.ndim == 1
    vec2 = vec[:, None] if squeeze else vec
    if out is None:
        out = np.zeros(vec.shape, dtype=np.complex128)
    out2 = out[:, None] if out.ndim == 1 else out
    parity = parity_table(max(1, int(vec.shape[0] - 1).bit_length()))
    if USE_NUMBA:
        _nb_apply_beta(out2, vec2, np.int64(bit), np.int64(sign_mask),
                       bool(create), complex(weight), parity)
    else:
        _np_apply_beta(out2, vec2, int(bit), int(sign_mask),
                       bool(create), complex(weight), parity)
    return out


# ============================================================================
# sparse pair-index kernels (central limit sampler)
# ============================================================================


def _np_expand_ops(codes, coeffs, op_codes, op_create, op_weights, epsneg):
    nops = op_codes.shape[0]
    chunks_codes = []
    chunks_coeffs = []
    for k in range(nops):
        c = op_codes[k]
        present = (codes == c).any(axis=1)
        sel = ~present if op_create[k] else present
        if not sel.any():
            continue
        rows = codes[sel]
        if op_create[k] and (rows[:, -1] != PAD).any():
            raise ValueError("sparse state row capacity exhausted by a creation")
        below = (rows < c) & (rows != PAD)
        neg = epsneg[c][np.where(rows == PAD, 0, rows)]
        par = np.bitwise_and(np.where(below, neg, 0).sum(axis=1), 1)
        amp = op_weights[k] * (1.0 - 2.0 * par) * coeffs[sel]
        if op_create[k]:
            new = np.concatenate([rows, np.full((rows.shape[0], 1), c, dtype=rows.dtype)], axis=1)
        else:
            new = np.where(rows == c, PAD, rows)
            new = np.concatenate([new, np.full((rows.shape[0], 1), PAD, dtype=rows.dtype)], axis=1)
        new.sort(axis=1)
        chunks_codes.append(new[:, :-1])
        chunks_coeffs.append(amp)
    if not chunks_codes:
        width = codes.shape[1]
        return (np.full((0, width), PAD, dtype=np.int16),
                np.zeros(0, dtype=np.complex128))
    return np.concatenate(chunks_codes, axis=0), np.concatenate(chunks_coeffs)


if HAVE_NUMBA:

    @numba.njit(cache=True)
    def _nb_expand_ops(codes, coeffs, op_codes, op_create, op_weights, epsneg):
        nrow, width = codes.shape
        nops = op_codes.shape[0]
        out_codes = np.full((nrow * nops, width), PAD, dtype=np.int16)
        out_coeffs = np.zeros(nrow * nops, dtype=np.complex128)
        count = 0
        for r in range(nrow):
            amp0 = coeffs[r]
            for k in range(nops):
                c = op_codes[k]
                pos = -1
                hit = -1
                par = 0
                for t in range(width):
                    v = codes[r, t]
                    if v == PAD:
                        break
                    if v == c:
                        hit = t
                        break
                    if v < c:
                        pos = t
                        if epsneg[c, v]:
                            par ^= 1
                if op_create[k]:
                    if hit >= 0:
                        continue
                    if codes[r, width - 1] != PAD:
                        raise ValueError(
                            "sparse state row capacity exhausted by a creation")
                    # shift the tail up by one and insert c at pos+1
                    for t2 in range(width - 1, pos + 1, -1):
                        out_codes[count, t2] = codes[r, t2 - 1]
                    for t2 in range(pos + 1):
                        out_codes[count, t2] = codes[r, t2]
                    out_codes[count, pos + 1] = c
                else:
                    if hit < 0:
                        continue
                    for t2 in range(hit):
                        out_codes[count, t2] = codes[r, t2]
                    for t2 in range(hit, width - 1):
                        out_codes[count, t2] = codes[r, t2 + 1]
                    out_codes[count, width - 1] = PAD
                w = op_weights[k]
                if par:
                    w = -w
                out_coeffs[count] = w * amp0
                count += 1
        return out_codes[:count], out_coeffs[:count]


def expand_ops_sparse(codes, coeffs, op_codes, op_create, op_weights, epsneg):
    """Apply a sum of creation/annihilation terms to a sparse state.

    ``codes`` is (N, width) int16, each row the ascending letter codes of
    one basis set padded with PAD; ``coeffs`` the matching amplitudes.
    The operator is sum_k op_weights[k] * beta(op_codes[k], op_create[k])
    with the commutation sign given by ``epsneg`` (1 where the sign
    function is -1).  Returns uncombined (codes, coeffs) contributions.

    The output holds up to N * n_ops entries; callers combine duplicates
    (and, for large states, chunk the input rows) on top of this.
    """
    fn = _nb_expand_ops if USE_NUMBA else _np_expand_ops
    return fn(codes, coeffs, op_codes, op_create, op_weights, epsneg)
