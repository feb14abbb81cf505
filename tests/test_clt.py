"""Random sign sampling and Monte-Carlo moment convergence."""

import numpy as np
import pytest

import sparse_clt
from qhyper import clt
from qhyper.clt import convergence_report, dense_reference_moment, sample_moment, sample_signs
from qhyper.qfock import QParams, _pair_weights, _pairings, moment, parse_word
from sparse_clt import (_apply_word, _letter_ops, expand_ops_sparse, pair_code, sparse_moment,
                        word_adjoint)
from test_kernels import PAD, pack_rows, unpack_keys


def letter_ops_by_pair_code(kind, i, mu_i, n, m):
    """The per-j loop of pair_code calls that _letter_ops replaces."""
    codes, create, weights = [], [], []
    w = 1.0 / np.sqrt(m)

    def add(parts_scale, star):
        for j in range(1, m + 1):
            codes.extend([pair_code(i, j, n, m), pair_code(-i, -j, n, m)])
            create.extend([not star, star])
            weights.extend([parts_scale * w / mu_i, parts_scale * w * mu_i])

    if kind == "x":
        nrm = 1.0 / np.sqrt(mu_i ** 2 + mu_i ** -2)
        add(nrm, False)
        add(nrm, True)
    else:
        add(1.0, kind == "g*")
    return (np.asarray(codes, dtype=np.int16), np.asarray(create, dtype=np.bool_),
            np.asarray(weights, dtype=np.complex128))


@pytest.mark.parametrize("kind", ["g", "g*", "x"])
def test_letter_ops_match_pair_code_loop(kind):
    for n, m, i, mu_i in ((1, 1, 1, 1.0), (2, 5, 2, 1.7), (3, 40, 1, 2.3), (3, 40, 3, 0.8)):
        got = _letter_ops(kind, i, mu_i, n, m)
        want = letter_ops_by_pair_code(kind, i, mu_i, n, m)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        _letter_ops(kind, 3, 1.0, 2, 4)


def test_pair_code_order():
    n, m = 2, 3
    pairs = [(-i, -j) for i in range(n, 0, -1) for j in range(m, 0, -1)] \
        + [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    codes = [pair_code(i, j, n, m) for i, j in pairs]
    assert codes == list(range(2 * n * m))
    with pytest.raises(ValueError):
        pair_code(1, -1, n, m)
    with pytest.raises(ValueError):
        pair_code(3, 1, n, m)


def test_sample_signs_statistics():
    q = 0.4  # P(-1) = 0.3
    total, minus = 0, 0
    for s in range(50):
        smp = sample_signs(q, 1, 64, seed=9, sample_index=s)
        iu = np.triu_indices(64, k=1)
        vals = smp.signs[iu]
        total += vals.size
        minus += int(np.sum(vals == -1))
    freq = minus / total
    sigma = np.sqrt(0.3 * 0.7 / total)
    assert abs(freq - 0.3) <= 3 * sigma
    # symmetry and diagonal
    assert np.array_equal(smp.signs, smp.signs.T)
    assert np.all(np.diag(smp.signs) == -1)


def test_sample_signs_determinism_and_extremes():
    a = sample_signs(0.5, 2, 8, seed=4, sample_index=7)
    b = sample_signs(0.5, 2, 8, seed=4, sample_index=7)
    c = sample_signs(0.5, 2, 8, seed=4, sample_index=8)
    assert np.array_equal(a.signs, b.signs)
    assert not np.array_equal(a.signs, c.signs)
    allminus = sample_signs(-1.0, 1, 10, seed=0)
    assert np.all(allminus.signs == -1)


def test_sample_signs_are_the_keyed_philox_stream():
    """Sample s is the upper triangle of one uniform draw from Philox (seed, s), whichever
    samples share its stack."""
    for q, n, m, seed in ((0.5, 2, 8, 4), (-0.3, 1, 1, 0), (0.0, 3, 7, 2 ** 64 - 1)):
        nm = n * m
        iu = np.triu_indices(nm, k=1)
        stack = clt._draw_signs(q, nm, seed, [5, 0, 3])
        for s, drawn in zip((5, 0, 3), stack):
            rng = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(s)]))
            want = -np.eye(nm, dtype=np.int8)
            want[iu] = want[iu[::-1]] = np.where(rng.random(iu[0].size) < (1 + q) / 2, 1, -1)
            assert drawn.dtype == np.int8 and np.array_equal(drawn, want)
            assert np.array_equal(sample_signs(q, n, m, seed, sample_index=s).signs, want)
    for q in (-1.5, 1.0, float("nan")):
        with pytest.raises(ValueError, match="q must be"):
            sample_signs(q, 1, 3, seed=0)


def test_sparse_apply_on_vacuum():
    m, mu = 7, (1.4,)
    sample = sample_signs(0.3, 1, m, seed=1)
    keys, coeffs = _apply_word([("g", 1)], sample, mu, 4)
    # m creation terms, each mu^-1 m^-1/2; annihilations die on the vacuum
    assert coeffs.size == m
    assert np.allclose(coeffs, 1.0 / (1.4 * np.sqrt(m)))
    codes = unpack_keys(keys, 4)
    assert not np.any(np.all(codes == PAD, axis=1))
    assert np.array_equal(pack_rows(codes), keys) and np.all(keys[1:] > keys[:-1])


def test_second_moment_exact_zero_variance():
    word = parse_word("s*s")
    for q in (0.5, -0.5, -1.0):
        for row in convergence_report(word, q, (1.7,), [2, 10, 35], samples=6, seed=3):
            assert abs(row["mean"] - 1.7 ** -2) < 1e-13
            assert row["stderr"] < 1e-14


def test_odd_word_vanishes():
    # an odd word has no pair partition, so its Wick sum is empty
    for word in ("s", "s s*s", "(s+s*)^5", "g1 g2* (g1+g1*)"):
        letters = parse_word(word)
        mu = (1.1, 1.4)[:max(i for _, i in letters)]
        (row,) = convergence_report(letters, 0.2, mu, [8], samples=4, seed=1)
        assert row["mean"] == 0 and row["stderr"] == 0
        assert sample_moment(letters, sample_signs(0.2, len(mu), 8, seed=1), mu) == 0


def test_car_square_exact():
    word = parse_word("(s+s*)^2")
    for row in convergence_report(word, -1.0, (1.0,), [2, 9, 24], samples=5, seed=8):
        assert abs(row["mean"] - 1.0) < 1e-12
        assert row["stderr"] < 1e-13


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (3, 1)])
def test_sparse_matches_dense_small_models(n, m):
    rng = np.random.default_rng(5)
    mu = (1.3, 1.0, 2.0)[:n]
    for s in range(3):
        sample = sample_signs(-0.4, n, m, seed=11, sample_index=s)
        for _ in range(8):
            length = int(rng.integers(2, 5))
            letters = [(("g", "g*", "x")[rng.integers(0, 3)],
                        int(rng.integers(1, n + 1))) for _ in range(length)]
            sparse = sample_moment(letters, sample, mu)
            dense = dense_reference_moment(letters, sample, mu)
            assert abs(sparse - dense) <= 1e-12


@pytest.mark.parametrize("n,m", [(1, 6), (2, 3), (3, 2)])
def test_sparse_matches_dense_at_six_pair_indices(n, m):
    """n*m = 6, the base model's MAX_N: the largest dense cross-check there is."""
    mu = (1.3, 1.0, 2.0)[:n]
    words = ["(s+s*)^6", "(s+s*)^4"] + (["(s2+s2*) s1* (s2+s2*) s1"] if n > 1 else [])
    for s in range(3):
        sample = sample_signs(-0.4, n, m, seed=11, sample_index=s)
        for word in words:
            letters = parse_word(word)
            assert abs(sample_moment(letters, sample, mu)
                       - dense_reference_moment(letters, sample, mu)) <= 1e-13


PAIRED_KINDS = (("g", "g*"), ("x", "x"), ("x", "g"), ("g*", "x"))


def test_three_index_words_match_dense():
    """Random words with two letters of each of three indices, at n*m = 6, against
    the dense model: pairs of different indices cross with the sample's signs."""
    rng = np.random.default_rng(8)
    mu = (1.3, 1.0, 2.0)
    nonzero = 0
    for s in range(3):
        sample = sample_signs(0.3, 3, 2, seed=17, sample_index=s)
        for _ in range(6):
            # each index's two letters pair with a non-zero weight, in either order
            kinds = [PAIRED_KINDS[k] for k in rng.integers(0, len(PAIRED_KINDS), 3)]
            letters = [(kinds[i][0], i + 1) for i in range(3)] + \
                [(kinds[i][1], i + 1) for i in range(3)]
            letters = [letters[t] for t in rng.permutation(6)]
            want = dense_reference_moment(letters, sample, mu)
            assert abs(sample_moment(letters, sample, mu) - want) <= 1e-13
            nonzero += abs(want) > 1e-3
    assert nonzero >= 6      # not every sign sum cancels


def term_scale(letters, mu):
    """The sum of the Wick terms' magnitudes, m**-k |prod_pairs tau(L_a L_b)| over the
    m**k pair-index choices of each pair partition: the scale of their rounding."""
    return sum(abs(w) for _, w, _ in _pairings(_pair_weights(letters, mu)))


@pytest.mark.parametrize("word,q,mu", [("(s+s*)^4", -0.5, (1.0,)),
                                       ("(s+s*)^6", 0.5, (1.0,)),
                                       ("s*s", 0.0, (1.7,)),
                                       ("(g1+g1*)(g2+g2*)(g1+g1*)(g2+g2*)g2*g2", 0.3,
                                        (1.3, 1.9))])
def test_sample_moment_matches_wick_formula(word, q, mu):
    """The Wick-sum moment equals the sparse Fock oracle sample by sample, far
    past the n*m <= 6 of the dense reference."""
    letters = parse_word(word)
    scale = term_scale(letters, mu)
    for m in (5, 17, 40):
        for s in range(3):
            sample = sample_signs(q, len(mu), m, seed=13, sample_index=s)
            got = sample_moment(letters, sample, mu)
            want = sparse_moment(letters, sample, mu)
            assert abs(got - want) <= 1e-12 * scale


def test_wick_moment_matches_dense_reference():
    sample = sample_signs(-0.4, 1, 3, seed=2)
    for word in ("(s+s*)^4", "s*s s*s", "s s* s s*", "(s+s*)^2 s*s"):
        letters = parse_word(word)
        want = dense_reference_moment(letters, sample, (1.3,))
        assert abs(sample_moment(letters, sample, (1.3,)) - want) <= \
            1e-12 * term_scale(letters, (1.3,))


def test_hermiticity_per_sample():
    rng = np.random.default_rng(6)
    sample = sample_signs(0.5, 2, 5, seed=3, sample_index=0)
    for _ in range(10):
        length = int(rng.integers(2, 6))
        letters = [(("g", "g*", "x")[rng.integers(0, 3)], int(rng.integers(1, 3)))
                   for _ in range(length)]
        a = sample_moment(letters, sample, (1.5, 1.1))
        b = sample_moment(word_adjoint(letters), sample, (1.5, 1.1))
        assert abs(a - np.conj(b)) <= 1e-12


def test_budget_rejected():
    with pytest.raises(ValueError, match="1 <= m <= 64, got m=100"):
        convergence_report(parse_word("(s+s*)^4"), 0.5, (1.0,), [100], samples=1, seed=0)
    with pytest.raises(ValueError, match="word length <= 6, got a word of 7 letters"):
        convergence_report([("g", 1)] * 7, 0.5, (1.0,), [8], samples=1, seed=0)


def test_packed_key_overflow_rejected():
    # letter codes run up to 2nm - 1 and are packed base 1024 as code + 1,
    # so 2nm > 1022 would let distinct rows share a key
    mu = (1.0,) * 9
    word = parse_word("(g9+g9*)^4")
    with pytest.raises(ValueError, match=r"2\*n\*m"):
        sample_moment(word, sample_signs(0.0, 9, 64, seed=0), mu)
    with pytest.raises(ValueError, match=r"2\*n\*m"):
        convergence_report(word, 0.0, mu, [5, 64], samples=1, seed=0)
    # 2nm = 1008 still packs: s8* s8 is mu^-2 = 1 for every sign sample
    val = sample_moment(parse_word("g8*g8"), sample_signs(0.0, 8, 63, seed=0), mu)
    assert abs(val - 1.0) <= 1e-12


def test_convergence_report():
    rows = convergence_report(parse_word("(s+s*)^4"), 0.5, (1.0,), [5, 20],
                              samples=40, seed=5)
    assert [r["m"] for r in rows] == [5, 20]
    assert abs(rows[0]["oracle"] - 2.5) < 1e-12
    assert rows[1]["abs_err"] < rows[0]["abs_err"]
    # single-sample trajectories for the pinned seeds also tighten
    assert len(rows[0]["traj"]) == 3
    for a, b in zip(rows[0]["traj"], rows[1]["traj"]):
        assert abs(b - rows[1]["oracle"]) < abs(a - rows[0]["oracle"])


def test_convergence_report_evaluates_each_sample_once(monkeypatch):
    draws = []
    real = clt._draw_signs

    def counting(q, nm, seed, indices):
        draws.append((nm, list(indices)))
        return real(q, nm, seed, indices)

    monkeypatch.setattr(clt, "_draw_signs", counting)
    # stacks of two samples at m = 9: 24 bytes per entry of a 9 x 9 sign matrix
    monkeypatch.setattr(clt, "STACK_BYTES", 2 * clt.STACK_ENTRY_BYTES * 81 + 1)
    word = parse_word("(s+s*)^4")
    rows = convergence_report(word, 0.5, (1.3,), [4, 9], samples=5, seed=2)
    assert draws == [(4, [0, 1, 2, 3, 4]), (9, [0, 1]), (9, [2, 3]), (9, [4])]
    for row in rows:
        want = [sample_moment(word, sample_signs(0.5, 1, row["m"], 2, s), (1.3,))
                for s in range(3)]
        assert row["traj"] == want
        (alone,) = convergence_report(word, 0.5, (1.3,), [row["m"]], samples=5, seed=2)
        assert (row["mean"], row["stderr"]) == (alone["mean"], alone["stderr"])


def per_sample_rows(letters, q, mu, m, samples, seed):
    """convergence_report's row for m from a loop of one sample_moment per sign sample."""
    n = max(i for _, i in letters)
    vals = np.array([sample_moment(letters, sample_signs(q, n, m, seed, sample_index=s), mu)
                     for s in range(samples)], dtype=np.complex128)
    var = np.var(vals.real, ddof=1) + np.var(vals.imag, ddof=1) if samples > 1 else 0.0
    mean = complex(vals.mean())
    oracle = moment(letters, QParams(q=q, n=n, mu=mu))
    return {"m": m, "mean": mean, "stderr": float(np.sqrt(var / samples)), "oracle": oracle,
            "abs_err": abs(mean - oracle), "traj": [complex(v) for v in vals[:3]]}


@pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.5])
@pytest.mark.parametrize("word,mu", [("s*s", (1.7,)), ("s s* s", (1.0,)), ("(s+s*)^4", (1.3,)),
                                     ("g1* (s2+s2*) g1 g2*g2", (1.3, 1.9)),
                                     ("(s+s*)^6", (1.0,)),
                                     ("(g1+g1*)(g2+g2*)(g1+g1*)(g2+g2*)g2*g2", (1.3, 1.9))])
def test_stacks_equal_a_per_sample_loop(monkeypatch, word, mu, q):
    """Each row is the per-sample loop's to the bit, whether a stack holds every sample
    or 1, 2 or 3 of them."""
    letters = parse_word(word)
    n = len(mu)
    for m in (1, 3, 40, 64):
        for samples in (1, 2, 7):
            want = per_sample_rows(letters, q, mu, m, samples, seed=4)
            assert convergence_report(letters, q, mu, [m], samples, seed=4) == [want]
            for size in (1, 2, 3):
                monkeypatch.setattr(clt, "STACK_BYTES",
                                    size * clt.STACK_ENTRY_BYTES * (n * m) ** 2)
                assert convergence_report(letters, q, mu, [m], samples, seed=4) == [want]
            monkeypatch.undo()


def test_estimators_reject_zero_samples():
    word = parse_word("(s+s*)^2")
    with pytest.raises(ValueError, match="samples"):
        convergence_report(word, 0.0, (1.0,), [5], samples=0, seed=0)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.5])
def test_estimators_reject_bad_weights(mu):
    # NaN gave (0j, 0.0), 0.5 a finite estimate, inf a late np.concatenate error
    word = parse_word("(s+s*)^2")
    with pytest.raises(ValueError, match="mu entries must be"):
        convergence_report(word, 0.3, (mu,), [5], samples=2, seed=0)
    with pytest.raises(ValueError, match="mu entries must be"):
        convergence_report(word, 0.3, (1.0, mu), [5], samples=2, seed=0)


def test_estimator_determinism():
    word = parse_word("(s+s*)^4")
    a = convergence_report(word, -0.5, (1.0,), [12], samples=20, seed=9)
    b = convergence_report(word, -0.5, (1.0,), [12], samples=20, seed=9)
    assert a == b


def unique_combine(codes, coeffs, prune=sparse_clt.PRUNE_TOL):
    """Duplicate combining by np.unique, np.add.at and a first-index scatter."""
    if coeffs.size == 0:
        return codes, coeffs
    uniq, inv = np.unique(pack_rows(codes), return_inverse=True)
    agg = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(agg, inv, coeffs)
    first = np.zeros(uniq.size, dtype=np.int64)
    first[inv[::-1]] = np.arange(coeffs.size)[::-1]
    keep = np.abs(agg) > prune
    return codes[first][keep], agg[keep]


def intersect_inner(ca, va, cb, vb):
    """<a, b> by sorting both key sets and np.intersect1d."""
    ka, kb = pack_rows(ca), pack_rows(cb)
    sa, sb = np.argsort(ka), np.argsort(kb)
    _, ia, ib = np.intersect1d(ka[sa], kb[sb], assume_unique=True, return_indices=True)
    return complex(np.sum(va[sa][ia] * np.conj(vb[sb][ib])))


def random_terms(rng, size, width=3, ncodes=12):
    """Uncombined terms drawn from a small pool of rows, so most repeat, and
    two terms of one more row that cancel exactly."""
    pool = np.full((40, width), PAD, dtype=np.int16)
    for r in range(1, pool.shape[0]):
        row = np.sort(rng.choice(ncodes, size=rng.integers(1, width + 1), replace=False))
        pool[r, :row.size] = row
    codes = pool[rng.integers(0, pool.shape[0], size)]
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    cancel = np.full((2, width), PAD, dtype=np.int16)
    cancel[:, 0] = ncodes
    return (np.concatenate([codes, cancel]),
            np.concatenate([coeffs, [0.25 - 1.5j, -0.25 + 1.5j]]))


def bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_combine_matches_unique_add_at_bitwise(seed):
    rng = np.random.default_rng(seed)
    codes, coeffs = random_terms(rng, 500 * (seed + 1))
    got, want = sparse_clt._combine(pack_rows(codes), coeffs), unique_combine(codes, coeffs)
    assert bitwise_equal(got[0], pack_rows(want[0])) and bitwise_equal(got[1], want[1])
    keys = got[0]
    assert np.all(keys[1:] > keys[:-1])
    assert got[1].size < np.unique(pack_rows(codes)).size   # the cancelled row


def test_combine_rejects_keys_too_large_to_pack_with_positions():
    # two terms take two position bits (the bit length of 2), so keys stay below 2**61
    coeffs = np.ones(2, dtype=np.complex128)
    with pytest.raises(ValueError, match="too large"):
        sparse_clt._combine(np.array([1 << 61, 0], dtype=np.int64), coeffs)
    keys, agg = sparse_clt._combine(np.array([(1 << 61) - 1, 0], dtype=np.int64), coeffs)
    assert keys.tolist() == [0, (1 << 61) - 1] and agg.tolist() == [1, 1]


def test_combine_matches_on_expanded_states():
    sample = sample_signs(0.5, 2, 12, seed=4)
    ops = _letter_ops("x", 2, 1.3, 2, 12)
    keys, coeffs = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.complex128)
    for _ in range(4):
        terms = expand_ops_sparse(keys, coeffs, *ops, sparse_clt.epsneg(sample), 4)
        got, want = sparse_clt._combine(*terms), unique_combine(unpack_keys(terms[0], 4), terms[1])
        assert bitwise_equal(got[0], pack_rows(want[0])) and bitwise_equal(got[1], want[1])
        keys, coeffs = got


@pytest.mark.parametrize("word", ["(s+s*)^6", "g1*g2*(s2+s2*)^2g2g1"])
def test_chunked_expand_is_bitwise_unchunked(monkeypatch, word):
    """Expanding a few operator terms at a time gives the moments of one
    whole expansion per letter, bit for bit."""
    letters = parse_word(word)
    samples = [sample_signs(0.3, 2, 8, seed=5, sample_index=s) for s in range(2)]
    whole = np.array([sparse_moment(letters, s, (1.3, 1.9)) for s in samples])
    rows = []
    real = sparse_clt.expand_ops_sparse

    def counting(codes, *rest):
        rows.append(codes.shape[0])
        return real(codes, *rest)

    monkeypatch.setattr(sparse_clt, "expand_ops_sparse", counting)
    monkeypatch.setattr(sparse_clt, "EXPAND_TERMS", 40)
    chunked = np.array([sparse_moment(letters, s, (1.3, 1.9)) for s in samples])
    assert len(rows) > len(letters) * len(samples)   # some letter took several chunks
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_sparse_inner_matches_intersect_bitwise(seed):
    rng = np.random.default_rng(10 + seed)
    a, b = (sparse_clt._combine(pack_rows(c), v) for c, v in (random_terms(rng, 300),
                                                        random_terms(rng, 200)))
    rows_a, rows_b = (unpack_keys(a[0], 3), a[1]), (unpack_keys(b[0], 3), b[1])
    got = sparse_clt._sparse_inner(*a, *a)
    want = intersect_inner(*rows_a, *rows_a)
    assert got.real.hex() == want.real.hex() and got.imag.hex() == want.imag.hex()
    got, want = sparse_clt._sparse_inner(*a, *b), intersect_inner(*rows_a, *rows_b)
    assert got.real.hex() == want.real.hex() and got.imag.hex() == want.imag.hex()
    # a state against an equal copy takes the general path
    copy = tuple(x.copy() for x in a)
    assert sparse_clt._sparse_inner(*a, *copy) == intersect_inner(*rows_a, *rows_a)
