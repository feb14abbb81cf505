"""The hot kernels, and the sparse CLT oracle's expand kernel, against pure-Python
per-row references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhyper._kernels import apply_beta_batch
from sparse_clt import expand_ops_sparse

# the references below read a sparse state as (N, width) int16 rows of
# ascending letter codes padded with PAD; pack_rows and unpack_keys convert
# between those rows and the kernel's packed int64 keys
PAD = np.int16(30000)


def pack_rows(codes):
    """One int64 key per row, base 1024: digit code + 1 per letter, most
    significant first, and 0 per PAD."""
    keys = np.zeros(codes.shape[0], dtype=np.int64)
    for col in codes.T:
        keys <<= 10
        keys += np.where(col == PAD, 0, col + 1)
    return keys


def unpack_keys(keys, width):
    """The (N, width) rows of the keys, digit by digit."""
    rows = np.full((len(keys), width), PAD, dtype=np.int16)
    for r, key in enumerate(int(k) for k in keys):
        for t in range(width):
            digit = (key >> 10 * (width - 1 - t)) & 1023
            if digit:
                rows[r, t] = digit - 1
    return rows


def test_apply_beta_create_and_annihilate():
    dim = 16
    rng = np.random.default_rng(0)
    vec = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    bit, mask = 0b0100, 0b0011
    out = apply_beta_batch(vec, bit, mask, True, 2.0)
    for a in range(dim):
        if a & bit:
            continue
        sign = (-1) ** bin(a & mask).count("1")
        assert np.allclose(out[a | bit], 2.0 * sign * vec[a])
    back = apply_beta_batch(out, bit, mask, False, 0.5)
    # annihilate undoes create (squared sign = 1) on the bit-free subspace
    for a in range(dim):
        expect = 0.0 * vec[a] if a & bit else vec[a]
        assert np.allclose(back[a], expect)


def reference_apply_beta(vec, bit, sign_mask, create, weight, out):
    """Row by row: out[a ^ bit] += weight * sign(a) * vec[a] for each source row a.

    Rows are taken as length-one slices so numpy multiplies arrays, as the
    kernel does, not scalars.
    """
    for a in range(vec.shape[0]):
        if bool(a & bit) == create:
            continue
        sign = np.array([1.0 - 2.0 * (bin(a & sign_mask).count("1") & 1)])
        coef = (complex(weight) * sign).reshape((1,) * vec.ndim)
        out[a ^ bit:(a ^ bit) + 1] += coef * vec[a:a + 1]
    return out


@pytest.mark.parametrize("shape", [(16,), (16, 3), (16, 2, 3)])
@pytest.mark.parametrize("create", [True, False])
def test_apply_beta_matches_reference_bitwise(shape, create):
    rng = np.random.default_rng(len(shape) + 2 * create)
    vec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weight = complex(rng.standard_normal(), rng.standard_normal())
    for bit in (1, 2, 4, 8):
        mask = int(rng.integers(0, 16))
        fresh = apply_beta_batch(vec, bit, mask, create, weight)
        want = reference_apply_beta(vec, bit, mask, create, weight,
                                    np.zeros(shape, dtype=np.complex128))
        assert fresh.shape == shape and fresh.tobytes() == want.tobytes()
        # accumulation into a given out, returned as the same object
        start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = start.copy()
        assert apply_beta_batch(vec, bit, mask, create, weight, out=out) is out
        want = reference_apply_beta(vec, bit, mask, create, weight, start.copy())
        assert out.tobytes() == want.tobytes()


def test_apply_beta_writes_through_strided_out():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    base = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
    before = base.copy()
    # every other row, a column slice, transposed: a view with no unit stride
    view = base.T[1:4, ::2].T
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    want = reference_apply_beta(vec, 4, 0b1010, True, 0.7, view.copy())
    assert apply_beta_batch(vec, 4, 0b1010, True, 0.7, out=view) is view
    assert view.tobytes() == want.tobytes()
    assert base[::2, 1:4].tobytes() == want.tobytes()
    # nothing outside the view moved
    untouched = np.ones(base.shape, dtype=bool)
    untouched[::2, 1:4] = False
    assert np.array_equal(base[untouched], before[untouched])
    # a strided input reads the same as its contiguous copy
    src = base[1::2, :3]
    assert apply_beta_batch(src, 2, 0b0101, False, 1.5).tobytes() == \
        apply_beta_batch(np.ascontiguousarray(src), 2, 0b0101, False, 1.5).tobytes()


def reference_expand(codes, coeffs, op_codes, op_create, op_weights, epsneg):
    """Op by op, row by row: the terms of sum_k w_k beta_k applied to the state."""
    width = codes.shape[1]
    out = []
    for c, create, w in zip(op_codes.tolist(), op_create.tolist(), op_weights):
        for row, amp in zip(codes.tolist(), coeffs):
            letters = [v for v in row if v != PAD]
            if (c in letters) == create:
                continue
            if create and len(letters) == width:
                raise ValueError("row capacity exhausted")
            sign = (-1) ** sum(int(epsneg[c, v]) for v in letters if v < c)
            new = sorted(letters + [c]) if create else [v for v in letters if v != c]
            out.append((tuple(new + [int(PAD)] * (width - len(new))), w * sign * amp))
    return out


def sorted_expand(codes, coeffs, op_codes, op_create, op_weights, epsneg):
    """The expansion with each new row sorted: a creation appends its code, an
    annihilation swaps its code for PAD, and a row sort restores the order."""
    present = (codes[None, :, :] == op_codes[:, None, None]).any(axis=2)
    ks, rs = np.nonzero(present != op_create[:, None])
    rows = codes[rs]
    c = op_codes[ks][:, None]
    below = (rows < c) & (rows != PAD)
    neg = epsneg[c, np.where(rows == PAD, 0, rows)]
    par = np.bitwise_and(np.where(below, neg, 0).sum(axis=1), 1)
    amp = op_weights[ks] * (1.0 - 2.0 * par) * coeffs[rs]
    new = np.concatenate([np.where(rows == c, PAD, rows),
                          np.where(op_create[ks], c[:, 0], PAD)[:, None]], axis=1)
    new.sort(axis=1)
    return new[:, :-1], amp


def combined(c, v):
    acc = {}
    for row, val in zip(map(tuple, c.tolist()), v):
        acc[row] = acc.get(row, 0.0) + val
    return acc


def expand_rows(codes, coeffs, ops, epsneg):
    """expand_ops_sparse on rows: the output keys unpacked, and the keys."""
    keys, v = expand_ops_sparse(pack_rows(codes), coeffs, *ops, epsneg, codes.shape[1])
    assert keys.dtype == np.int64
    return unpack_keys(keys, codes.shape[1]), v, keys


def assert_matches_reference(codes, coeffs, ops, epsneg):
    ref = reference_expand(codes, coeffs, *ops, epsneg)
    c, v, keys = expand_rows(codes, coeffs, ops, epsneg)
    assert c.dtype == np.int16 and c.shape == (len(ref), codes.shape[1])
    assert keys.tobytes() == pack_rows(c).tobytes()
    # op-major order, as the duplicate combining downstream sums in it
    assert [tuple(r) for r in c.tolist()] == [row for row, _ in ref]
    assert np.allclose(v, [val for _, val in ref], rtol=1e-14, atol=0.0)
    want_c, want_v = sorted_expand(codes, coeffs, *ops, epsneg)
    assert c.tobytes() == want_c.tobytes() and v.tobytes() == want_v.tobytes()
    got = combined(c, v)
    want = combined(np.array([row for row, _ in ref], dtype=np.int16).reshape(-1, codes.shape[1]),
                    [val for _, val in ref])
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-14 * max(1.0, abs(val))


def _fixed_case():
    rng = np.random.default_rng(2)
    width = 4
    codes = np.full((6, width), PAD, dtype=np.int16)
    codes[1, 0] = 3
    codes[2, :2] = (1, 5)
    codes[3, :3] = (0, 2, 7)
    codes[4, 0] = 5
    codes[5, :2] = (3, 6)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    ops = (np.array([3, 5, 2], dtype=np.int16), np.array([True, False, True]),
           np.array([0.7, -1.2, 0.3 + 0.1j], dtype=np.complex128))
    epsneg = np.triu((rng.random((8, 8)) < 0.5).astype(np.uint8), 1)
    return codes, coeffs, ops, epsneg + epsneg.T


def test_expand_matches_reference():
    codes, coeffs, ops, epsneg = _fixed_case()
    assert_matches_reference(codes, coeffs, ops, epsneg)
    # no op applies: an empty, correctly shaped result
    keys, v = expand_ops_sparse(pack_rows(codes[:1]), coeffs[:1], ops[0][1:2], ops[1][1:2],
                                ops[2][1:2], epsneg, 4)
    assert keys.shape == (0,) and keys.dtype == np.int64 and v.shape == (0,)


def test_expand_rejects_exhausted_capacity():
    codes, coeffs, ops, epsneg = _fixed_case()
    full = np.array([[0, 1, 5, 7]], dtype=np.int16)
    with pytest.raises(ValueError, match="capacity"):
        expand_rows(full, coeffs[:1], ops, epsneg)
    # an annihilation on a full row, or a creation of a present code, fits
    c, _, _ = expand_rows(full, coeffs[:1], (np.array([5, 1], dtype=np.int16),
                                             np.array([False, True]), ops[2][:2]), epsneg)
    assert c.tolist() == [[0, 1, 7, PAD]]


@st.composite
def sparse_cases(draw):
    ncodes = draw(st.integers(1, 8))
    width = draw(st.integers(1, 4))
    code = st.integers(0, ncodes - 1)
    rows = draw(st.lists(st.sets(code, max_size=width), max_size=6))
    codes = np.full((len(rows), width), PAD, dtype=np.int16)
    for r, row in enumerate(rows):
        codes[r, :len(row)] = sorted(row)
    amp = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
    coeffs = np.array(draw(st.lists(amp, min_size=len(rows), max_size=len(rows))),
                      dtype=np.complex128)
    ops = draw(st.lists(st.tuples(code, st.booleans(), amp), min_size=1, max_size=6))
    op_codes, op_create, op_weights = zip(*ops)
    bits = draw(st.lists(st.booleans(), min_size=ncodes * ncodes,
                         max_size=ncodes * ncodes))
    epsneg = np.array(bits, dtype=np.uint8).reshape(ncodes, ncodes)
    return codes, coeffs, (np.array(op_codes, dtype=np.int16), np.array(op_create),
                           np.array(op_weights, dtype=np.complex128)), epsneg


@settings(max_examples=200, deadline=None)
@given(sparse_cases())
def test_expand_property(case):
    codes, coeffs, ops, epsneg = case
    try:
        reference_expand(codes, coeffs, *ops, epsneg)
    except ValueError:
        with pytest.raises(ValueError, match="capacity"):
            expand_rows(codes, coeffs, ops, epsneg)
        return
    assert_matches_reference(codes, coeffs, ops, epsneg)


@st.composite
def padded_rows(draw, width):
    row = sorted(draw(st.sets(st.integers(0, 1021), max_size=width)))
    return row + [int(PAD)] * (width - len(row))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.lists(padded_rows(w), min_size=1, max_size=8)),
       st.lists(st.tuples(st.integers(0, 1021), st.booleans()), max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_keys_round_trip_order_and_wide_codes(rows, extra_ops, seed):
    """Rows of up to six codes below 1022 pack to keys that unpack to the rows
    and sort as the rows do lexicographically with PAD below every code; the
    kernel expands such keys as the references expand the rows."""
    codes = np.array(rows, dtype=np.int16)
    keys = pack_rows(codes)
    assert unpack_keys(keys, codes.shape[1]).tobytes() == codes.tobytes()
    digits = [tuple(0 if c == PAD else c + 1 for c in row) for row in rows]
    assert sorted(range(len(rows)), key=lambda r: (keys[r], r)) == \
        sorted(range(len(rows)), key=lambda r: (digits[r], r))
    # every code of the rows created and annihilated, and a few more ops
    held = sorted({c for row in rows for c in row if c != PAD})
    ops = [(c, create) for c in held for create in (False, True)] + extra_ops
    if not ops:
        return
    rng = np.random.default_rng(seed)
    # random signs among the codes in use, the only entries the expansion reads
    used = np.array(sorted(set(held) | {c for c, _ in ops}))
    signs = np.triu((rng.random((used.size, used.size)) < 0.5).astype(np.uint8))
    epsneg = np.zeros((1022, 1022), dtype=np.uint8)
    epsneg[np.ix_(used, used)] = signs | signs.T
    coeffs = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    ops = (np.array([c for c, _ in ops], dtype=np.int16), np.array([f for _, f in ops]),
           rng.standard_normal(len(ops)) + 1j * rng.standard_normal(len(ops)))
    try:
        reference_expand(codes, coeffs, *ops, epsneg)
    except ValueError:
        with pytest.raises(ValueError, match="capacity"):
            expand_rows(codes, coeffs, ops, epsneg)
        return
    assert_matches_reference(codes, coeffs, ops, epsneg)
