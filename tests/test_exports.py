"""Every name a qhyper module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import qhyper

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
