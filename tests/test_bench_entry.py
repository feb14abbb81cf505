"""The benchmark's workloads run on the package as it is.

``perfbench/worker.py`` reaches into the package by name: ``get_density(model)``,
``sample_signs`` with ``dense_reference_moment``, ``violation_search(...).ratio``
and ``cli.main``.  One round of each workload, with every verdict true, keeps a
change that breaks one of them from passing the tests.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("worker")


@pytest.mark.parametrize("name", ["search", "campaign"])
def test_one_round_passes_every_verdict(worker, name):
    wl = worker.WORKLOADS[name](1)
    rnd = worker.run_round(wl, None, 0)
    assert rnd["errors"] == []
    assert len(rnd["ok"]) == len(wl.ops)
    assert all(rnd["ok"]), [label for (label, _), ok in zip(wl.ops, rnd["ok"]) if not ok]
