"""The closed-form 2**n dimensional irreducible representation against the 4**n oracle."""

import numpy as np
import pytest

from gns_oracle import (contraction_ratio, dual_contraction_ratio, expand, haagerup_norm,
                        reconstruct, word_of)
from qhyper import state
from qhyper.babyfock import GEN, STAR, Y, BabyFock
from qhyper.hyperc import RatioEvaluator
from qhyper.linalg import schatten_norm
from qhyper.signs import ModelParams, SignTable

MODELS = [
    ModelParams.make(1, 1.4, SignTable.all_anticommuting(1)),
    ModelParams.make(2, (1.0, 2.5), sign_seed=1),
    ModelParams.make(3, (1.0, 1.75, 2.5), sign_seed=900),
    ModelParams.make(3, (2.5, 2.5, 2.5), sign_seed=901),
    ModelParams.make(4, (1.0, 1.5, 2.0, 3.0), sign_seed=11),
]

# one model per n = 1..6, mixed weights and signs
BY_N = [ModelParams.make(n, tuple(1.0 + 0.5 * k for k in range(n)), sign_seed=40 + n)
        for n in range(1, 7)]


def _ids(pr):
    return f"n{pr.n}-mu{max(pr.mu)}"


@pytest.fixture(scope="module", params=MODELS, ids=_ids)
def model(request):
    # a private instance: its cached monomial table is freed with the module
    return BabyFock(request.param)


def _rel(a, b):
    return abs(a - b) / abs(b)


def _dense(model):
    """(4**n, 2**n, 2**n) stack of pi(M_w), one ``irrep_matrix`` per word."""
    return np.stack([model.irrep_matrix(word_of(model, w)) for w in range(model.dim)])


def _letter(model, letter, i):
    """Dense pi of one letter on index i."""
    return model.irrep_matrix(tuple(letter if k == i - 1 else 0 for k in range(model.n)))


@pytest.mark.parametrize("params", BY_N, ids=_ids)
def test_irrep_generators_satisfy_relations(params):
    # the four families of ``BabyFock.verify_relations``, on pi(g_i)
    model = BabyFock(params)
    eps = params.signs.matrix()
    g = [_letter(model, GEN, i) for i in range(1, model.n + 1)]
    gs = [_letter(model, STAR, i) for i in range(1, model.n + 1)]
    ident = np.eye(1 << model.n)
    for i in range(model.n):
        assert np.array_equal(gs[i], g[i].T)
        assert np.max(np.abs(g[i] @ g[i])) <= 1e-12
        c = model.mu[i] ** 2 + model.mu[i] ** -2
        assert np.max(np.abs(gs[i] @ g[i] + g[i] @ gs[i] - c * ident)) <= 1e-12
        for j in range(model.n):
            if j != i:
                assert np.max(np.abs(g[i] @ g[j] - eps[i, j] * g[j] @ g[i])) <= 1e-12
                assert np.max(np.abs(gs[i] @ g[j] - eps[i, j] * g[j] @ gs[i])) <= 1e-12


@pytest.mark.parametrize("params", BY_N[:4], ids=_ids)
def test_irrep_words_are_one_sparse_letter_products(params):
    # pi(M_w) = pi(w_1) ... pi(w_n) as dense products, one non-zero per row
    model = BabyFock(params)
    stack = _dense(model)
    letters = [[np.eye(1 << model.n)] + [_letter(model, lt, i) for lt in (GEN, STAR, Y)]
               for i in range(1, model.n + 1)]
    for w in range(model.dim):
        want = np.eye(1 << model.n)
        for i, lt in enumerate(word_of(model, w)):
            want = want @ letters[i][lt]
        assert np.max(np.abs(stack[w] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert np.all(np.count_nonzero(want, axis=1) <= 1)


@pytest.mark.parametrize("params", BY_N, ids=_ids)
def test_irrep_column_maps_are_xor_groups(params):
    # g and g* flip their site's bit, so row r of pi(M_w) has its non-zero at
    # column r ^ flip[w], flip[w] the sites of w's g and g* letters: 2**n column
    # maps, each shared by 2**n words
    model = BabyFock(params)
    flip, _, rho = model.irrep()
    letters = (np.arange(model.dim)[:, None] >> 2 * np.arange(model.n)) & 3
    sites = np.isin(letters, (GEN, STAR)) << np.arange(model.n)
    assert np.array_equal(flip, sites.sum(axis=1))
    assert np.array_equal(np.bincount(flip, minlength=rho.size),
                          np.full(rho.size, rho.size))


def _irrep_word_loop(params):
    """(flip, vals) word by word: each word is its lowest non-unit letter times the
    word without it, the closed-form site letters as ``BabyFock.irrep`` states them."""
    n, eps, mu = params.n, params.signs.matrix(), np.asarray(params.mu)
    c, rows = mu ** 2 + mu ** -2, np.arange(1 << n)
    letters = []
    for k in range(n):
        zmask = sum(1 << j for j in range(k) if eps[k, j] == -1)
        gval = np.sqrt(c[k]) * (1.0 - 2.0 * (np.array([bin(r & zmask).count("1") for r in rows])
                                             & 1))
        full = (rows & (1 << k)) != 0
        letters.append((None, (1 << k, np.where(full, 0.0, gval)),
                        (1 << k, np.where(full, gval, 0.0)),
                        (0, np.where(full, c[k], 0.0) - mu[k] ** -2)))
    flip, vals = np.zeros(4 ** n, np.int64), np.ones((4 ** n, rows.size))
    for w in range(1, 4 ** n):
        k = ((w & -w).bit_length() - 1) // 2
        bit, v = letters[k][(w >> (2 * k)) & 3]
        prev = w & ~(3 << (2 * k))
        flip[w], vals[w] = flip[prev] ^ bit, v * vals[prev][rows ^ bit]
    return flip, vals


@pytest.mark.parametrize("params", BY_N[:4] + MODELS[2:4] + [
    ModelParams.make(4, (1.3, 1.0, 2.2, 1.7), signs) for signs in
    (SignTable.all_anticommuting(4), SignTable.all_commuting(4), SignTable.random(4, 5))],
    ids=_ids)
def test_irrep_build_is_bytewise_the_word_loop(params):
    flip, vals, _ = BabyFock(params).irrep()
    want_flip, want_vals = _irrep_word_loop(params)
    assert flip.dtype == want_flip.dtype and flip.tobytes() == want_flip.tobytes()
    assert vals.shape == want_vals.shape and vals.tobytes() == want_vals.tobytes()


def _dense_letter_products(model, t, p, direction):
    """(4**n, 2**n, 2**n): pi(M_w) as dense letter products, times rho**(1/p),
    with exp(-t deg_w) in the dual direction."""
    _, _, rho = model.irrep()
    letters = [[np.eye(rho.size)] + [_letter(model, lt, i) for lt in (GEN, STAR, Y)]
               for i in range(1, model.n + 1)]
    out = np.empty((model.dim, rho.size, rho.size))
    for w in range(model.dim):
        out[w] = np.eye(rho.size)
        for i, lt in enumerate(word_of(model, w)):
            out[w] = out[w] @ letters[i][lt]
    out *= rho ** (1.0 / p)
    if direction == "dual":
        out *= np.exp(-t * model.monomial_degrees)[:, None, None]
    return out


@pytest.mark.parametrize("direction,p", [("primal", 1.25), ("dual", 4.0)])
@pytest.mark.parametrize("params", BY_N[:4], ids=_ids)
def test_evaluator_add_words_and_matrices_match_dense(params, direction, p):
    model = BabyFock(params)
    t = 0.3
    ev = RatioEvaluator(model, t, p, direction)
    dense = _dense_letter_products(model, t, p, direction)
    d = 1 << model.n
    rng = np.random.default_rng(500 + model.n)
    words = rng.integers(0, model.dim, size=3 * model.dim)      # with repeats
    coeffs = rng.standard_normal(words.size) + 1j * rng.standard_normal(words.size)
    mats = rng.standard_normal((words.size, d, d)) + 1j * rng.standard_normal((words.size, d, d))
    want = mats + coeffs[:, None, None] * dense[words]
    ev.add_words(mats, words, coeffs)
    assert np.max(np.abs(mats - want)) <= 1e-15 * np.max(np.abs(want))
    C = rng.standard_normal((5, model.dim)) + 1j * rng.standard_normal((5, model.dim))
    want = np.tensordot(C, dense, axes=1)
    assert np.max(np.abs(ev.matrices(C) - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_fresh_n6_evaluator_holds_only_one_sparse_rows(direction):
    # no dense (4**n, 2**n, 2**n) stack: the evaluator itself holds only 4**n
    # per-word arrays, and its model's cache at most 4**n * 2**n entries an array
    model = BabyFock(BY_N[5])
    ev = RatioEvaluator(model, 0.3, 1.5, direction)
    arrays = [a for a in vars(ev).values() if isinstance(a, np.ndarray)]
    assert arrays
    assert max(a.size for a in arrays) <= model.dim
    cached = [a for v in model._matrix_cache.values()
              for a in (v if isinstance(v, tuple) else (v,))]
    assert max(a.size for a in cached) <= model.dim << model.n


@pytest.mark.parametrize("p", [np.inf, 1.25, 4.0])
@pytest.mark.parametrize("params", BY_N[:4], ids=_ids)
def test_irrep_sum_and_add_match_dense(params, p):
    model = BabyFock(params)
    dense = _dense_letter_products(model, 0.0, p, "primal")
    d = 1 << model.n
    rng = np.random.default_rng(600 + model.n)
    C = rng.standard_normal((5, model.dim)) + 1j * rng.standard_normal((5, model.dim))
    want = np.tensordot(C, dense, axes=1)
    assert np.max(np.abs(model.irrep_sum(C, p) - want)) <= 1e-15 * np.max(np.abs(want))
    words = rng.integers(0, model.dim, size=3 * model.dim)      # with repeats
    coeffs = rng.standard_normal(words.size) + 1j * rng.standard_normal(words.size)
    mats = rng.standard_normal((words.size, d, d)) + 1j * rng.standard_normal((words.size, d, d))
    want = mats + coeffs[:, None, None] * dense[words]
    model.irrep_add(mats, words, coeffs, p)
    assert np.max(np.abs(mats - want)) <= 1e-15 * np.max(np.abs(want))
    if p == np.inf:         # rho**0.0 is exactly 1: pi(M_w) itself, as irrep_matrix has it
        assert np.array_equal(model.irrep_sum(np.eye(model.dim), p), _dense(model))


@pytest.mark.parametrize("p", [np.inf, 1.25, 4.0])
@pytest.mark.parametrize("params", BY_N, ids=_ids)
def test_irrep_coeffs_inverts_irrep_sum(params, p):
    model = BabyFock(params)
    rng = np.random.default_rng(700 + model.n)
    coeffs = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    got = model.irrep_coeffs(model.irrep_sum(coeffs, p)[0], p)
    assert np.linalg.norm(got - coeffs) <= 1e-12 * np.linalg.norm(coeffs)


@pytest.mark.parametrize("params", BY_N, ids=_ids)
def test_irrep_trace_and_weight_identities(params):
    # trace(rho pi(M_w)) = tau(M_w) = delta_{w,0} and
    # trace(rho pi(M_w)* pi(M_w)) = |M_w x_empty|**2 from the 4**n model
    model = BabyFock(params)
    flip, vals, rho = model.irrep()
    assert abs(rho.sum() - 1.0) <= 1e-12 and np.all(rho > 0)
    traces = np.sum(np.where(flip[:, None] == 0, vals, 0.0) * rho, axis=1)
    assert abs(traces[0] - 1.0) <= 1e-12
    assert np.max(np.abs(traces[1:])) <= 1e-12
    amp = model._monomial_data()[1]
    weights = np.sum(rho[np.arange(rho.size) ^ flip[:, None]] * vals ** 2, axis=1)
    assert np.max(np.abs(weights - amp ** 2) / amp ** 2) <= 1e-12


def test_basis_rank_and_invariance(model):
    # rank: the 4**n images are a basis of M_{2**n}, so pi is irreducible;
    # invariance: products of images stay one-sparse (signed, weighted
    # partial permutations), the structure the evaluator's scatter relies on
    stack = _dense(model)
    s = np.linalg.svd(stack.reshape(model.dim, -1), compute_uv=False)
    assert s[-1] > 1e-10 * s[0]
    for v in range(model.dim):
        assert np.all(np.count_nonzero(stack[v] @ stack, axis=2) <= 1)


def test_irrep_images_match_gns_gram(model):
    # trace(rho pi(M_v)* pi(M_w)) = <M_w x_empty, M_v x_empty>, the diagonal
    # Gram matrix of the 4**n model: x -> pi(x) rho**(1/2) is the GNS isometry
    _, _, rho = model.irrep()
    flat = (_dense(model) * np.sqrt(rho)).reshape(model.dim, -1)
    gram = flat @ flat.T
    want = np.diag(model._monomial_data()[1] ** 2)
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(gram - want) / scale) <= 1e-12


@pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
def test_compressed_norm_matches_haagerup(model, p):
    # ||pi(x) rho**(1/p)||_p in the 2**n representation, no scale factor
    rng = np.random.default_rng(100 + model.n)
    _, _, rho = model.irrep()
    stack = _dense(model) * rho ** (1.0 / p)
    for _ in range(3):
        c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        s = np.linalg.svd(np.tensordot(c, stack, axes=1), compute_uv=False)
        got = np.sum(s ** p) ** (1.0 / p)
        assert _rel(got, haagerup_norm(model, reconstruct(model, c), p)) <= 1e-12


@pytest.mark.parametrize("direction,p", [("primal", 1.25), ("primal", 1.5),
                                         ("dual", 4.0)])
def test_evaluator_matches_gns_ratios(model, direction, p):
    t = 0.3
    rng = np.random.default_rng(200 + model.n)
    coeffs = rng.standard_normal((4, model.dim)) + 1j * rng.standard_normal((4, model.dim))
    coeffs[0] = 0.0
    coeffs[0, 0] = 1.0                                # the identity
    got = RatioEvaluator(model, t, p, direction).ratios(coeffs)
    oracle = contraction_ratio if direction == "primal" else dual_contraction_ratio
    for c, r in zip(coeffs, got):
        assert _rel(r, oracle(model, reconstruct(model, c), t, p)) <= 1e-12


@pytest.mark.parametrize("params", [pr for pr in MODELS if pr.n <= 3]
                         + [MODELS[-1]] + BY_N[4:], ids=_ids)
def test_evaluator_never_reads_monomial_table(params, monkeypatch):
    # the GNS oracle reads the density and the monomial table; the evaluator on the
    # same fresh model reads neither, for every n
    model = BabyFock(params)
    t, p = 0.3, 1.5
    rng = np.random.default_rng(300 + model.n)
    coeffs = rng.standard_normal((3, model.dim)) + 1j * rng.standard_normal((3, model.dim))
    coeffs[0] = 0.0
    coeffs[0, 0] = 1.0                                # the identity: ratio 1
    want = [1.0] + ([contraction_ratio(model, reconstruct(model, c), t, p)
                     for c in coeffs[1:]] if model.n <= 3 else [])

    def forbidden(*args):
        raise AssertionError("monomial table or 4**n density read")

    monkeypatch.setattr(BabyFock, "monomial_table", forbidden)
    monkeypatch.setattr(state, "get_density", forbidden)
    got = RatioEvaluator(model, t, p).ratios(coeffs)
    for r, w in zip(got, want):
        assert _rel(r, w) <= 1e-12


@pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
@pytest.mark.parametrize("params", BY_N, ids=_ids)
def test_irrep_coeffs_inverts_evaluator_matrices(params, p):
    model = BabyFock(params)
    rng = np.random.default_rng(400 + model.n)
    coeffs = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    got = model.irrep_coeffs(RatioEvaluator(model, 0.0, p).matrices(coeffs)[0], p)
    assert np.linalg.norm(got - coeffs) <= 1e-12 * np.linalg.norm(coeffs)
    if model.n <= 4:
        gns = expand(model, reconstruct(model, coeffs))
        assert np.linalg.norm(got - gns) <= 1e-12 * np.linalg.norm(gns)


@pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
def test_irrep_coeffs_reads_any_matrix_back(model, p):
    # the 4**n words span M_(2**n): a generic A is pi(x) rho**(1/p) of the x read back,
    # and the 4**n oracle gives x the same Haagerup norm
    rng = np.random.default_rng(500 + model.n)
    m = 1 << model.n
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    coeffs = model.irrep_coeffs(A, p)
    back = RatioEvaluator(model, 0.0, p).matrices(coeffs)[0]
    assert np.linalg.norm(back - A) <= 1e-12 * np.linalg.norm(A)
    assert _rel(haagerup_norm(model, reconstruct(model, coeffs), p),
                schatten_norm(A, p)) <= 1e-12


@pytest.mark.parametrize("p,t", [(0.0, 0.3), (0.99, 0.3), (float("nan"), 0.3),
                                 (1.5, -3.0), (1.5, float("inf"))])
def test_evaluator_rejects_bad_exponent_or_time(p, t):
    model = BabyFock(MODELS[0])
    with pytest.raises(ValueError, match="p must|t must"):
        RatioEvaluator(model, t, p)
