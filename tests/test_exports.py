"""Every name a qhyper module exports in ``__all__`` exists, and the tests alone
hold the 4**n oracle and the paper's per-instance reference checks."""

import importlib
import inspect
import pkgutil

import pytest

import gns_oracle
import paper_reference
import qhyper
import sparse_clt
from qhyper.babyfock import BabyFock
from qhyper.signs import SignTable

MODULES = [m.name for m in pkgutil.iter_modules(qhyper.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qhyper.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from qhyper.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_modules_declare_exports():
    declared = [n for n in MODULES if hasattr(importlib.import_module(f"qhyper.{n}"), "__all__")]
    assert set(MODULES) - set(declared) <= {"cli"}


# the letter kernels, the coefficient <-> 4**n matrix oracle and the class-probe relation
# checks of the kernels: defined in tests/gns_oracle.py and nowhere in qhyper
ORACLE_NAMES = {
    "expand", "reconstruct", "random_element", "monomial_matrix", "apply_letter", "apply_y",
    "vacuum_state", "word_of", "haagerup_norm", "modular_check", "embed_lower", "apply_OU",
    "apply_Ti", "cp_randomized_check", "l2_pythagoras_residual", "contraction_ratio",
    "dual_contraction_ratio", "_class_probe", "generator_norm", "verify_relations",
    "apply_beta_batch", "apply_creation", "apply_annihilation", "apply_gamma",
    "apply_gamma_star", "identity", "vacuum_vector", "kernel_density",
}


def test_gns_oracle_lives_only_in_the_tests():
    assert ORACLE_NAMES <= set(vars(gns_oracle))
    for name in MODULES:
        assert not ORACLE_NAMES & set(vars(importlib.import_module(f"qhyper.{name}"))), name
    assert not ORACLE_NAMES & set(vars(BabyFock))
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("qhyper._kernels")


# checks that no command reaches: the per-instance references, in tests/paper_reference.py
# and tests/sparse_clt.py, and nowhere in qhyper
REFERENCE_NAMES = {
    "bcl_check", "asym_convexity_check", "dual_convexity_check", "_split",
    "decomposition_identity_check", "gamma_lower_bound_check", "disjoint_support_check",
    "_gram_entry", "gram_matrix", "q_inner", "positivity_check", "MAX_GRAM_LEVEL",
    "apply_OU_coeffs", "irrep_coeffs", "witness_primal_to_dual", "witness_dual_to_primal",
}
# deleted: a reached path, a closed form or a remaining test does the job
DELETED_NAMES = {
    "RelationsReport", "is_cp", "clt_estimate", "theorem_bound", "RICHARDSON_EPS",
    "_monomial_data", "_word_entries", "_l2_weights",
}


def test_reference_checks_live_only_in_the_tests():
    assert REFERENCE_NAMES <= set(vars(paper_reference))
    assert "word_adjoint" in vars(sparse_clt)
    gone = REFERENCE_NAMES | DELETED_NAMES | {"word_adjoint"}
    for name in MODULES:
        assert not gone & set(vars(importlib.import_module(f"qhyper.{name}"))), name
    assert not gone & set(vars(BabyFock))
    assert "eps" not in vars(SignTable)
    # qhyper checks only the indices 1..n; the oracle's signed kernels check their own
    assert list(inspect.signature(BabyFock._check_index).parameters) == ["self", "i"]
