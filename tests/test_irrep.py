"""The 2**n dimensional irreducible representation against the 4**n oracle."""

import numpy as np
import pytest

from qhyper.babyfock import BabyFock
from qhyper.hyperc import RatioEvaluator, contraction_ratio, dual_contraction_ratio
from qhyper.signs import ModelParams, SignTable
from qhyper.state import get_density, haagerup_norm

MODELS = [
    ModelParams.make(1, 1.4, SignTable.all_anticommuting(1)),
    ModelParams.make(2, (1.0, 2.5), sign_seed=1),
    ModelParams.make(3, (1.0, 1.75, 2.5), sign_seed=900),
    ModelParams.make(3, (2.5, 2.5, 2.5), sign_seed=901),
    ModelParams.make(4, (1.0, 1.5, 2.0, 3.0), sign_seed=11),
]


@pytest.fixture(scope="module", params=MODELS, ids=lambda pr: f"n{pr.n}-mu{max(pr.mu)}")
def model(request):
    # a private instance: the n=4 stack (256 MiB) is freed with the module;
    # building it up front makes reconstruct a single tensordot
    m = BabyFock(request.param)
    m.monomial_stack()
    return m


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_basis_rank_and_invariance(model):
    V = model.irrep_basis()
    size = 1 << model.n
    assert V.shape == (model.dim, size)
    s = np.linalg.svd(V, compute_uv=False)
    assert np.max(np.abs(s - 1.0)) <= 1e-12          # orthonormal, rank 2**n
    MV = model.monomial_stack() @ V
    resid = np.linalg.norm(MV - V @ (V.conj().T @ MV), axis=(1, 2))
    assert np.max(resid / np.linalg.norm(MV, axis=(1, 2))) <= 1e-12


@pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
def test_compressed_norm_matches_haagerup(model, p):
    rng = np.random.default_rng(100 + model.n)
    V = model.irrep_basis()
    droot = get_density(model).power(1.0 / p)
    for _ in range(3):
        x = model.random_element(rng)
        small = V.conj().T @ x @ droot @ V
        s = np.linalg.svd(small, compute_uv=False)
        got = V.shape[1] ** (1.0 / p) * np.sum(s ** p) ** (1.0 / p)
        assert _rel(got, haagerup_norm(model, x, p)) <= 1e-12


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
        assert _rel(r, oracle(model, model.reconstruct(c), t, p)) <= 1e-12


def test_irrep_images_match_compressed_stack(model):
    V = model.irrep_basis()
    images = model.irrep_images()
    assert images.shape == (model.dim, V.shape[1], V.shape[1])
    want = V.conj().T @ model.monomial_stack() @ V
    err = np.linalg.norm(images - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(err) <= 1e-13


@pytest.mark.parametrize("params", [pr for pr in MODELS if pr.n <= 3],
                         ids=lambda pr: f"n{pr.n}-mu{max(pr.mu)}")
def test_evaluator_never_reads_monomial_stack(params, monkeypatch):
    # the density check and the GNS oracle read the stack; the evaluator
    # on the same fresh model must not
    model = BabyFock(params)
    get_density(model)
    t, p = 0.3, 1.5
    rng = np.random.default_rng(300 + model.n)
    coeffs = rng.standard_normal((3, model.dim)) + 1j * rng.standard_normal((3, model.dim))
    want = [contraction_ratio(model, model.reconstruct(c), t, p) for c in coeffs]

    def no_stack(self):
        raise AssertionError("monomial_stack read")

    monkeypatch.setattr(BabyFock, "monomial_stack", no_stack)
    got = RatioEvaluator(model, t, p).ratios(coeffs)
    for r, w in zip(got, want):
        assert _rel(r, w) <= 1e-12
