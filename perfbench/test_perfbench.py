"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from tracing import Span  # noqa: E402


def _span(sid, start, end, parent=None, name="x", counts=None):
    return Span(sid, name, start, end, parent, None, 0, counts)


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_direct_children_only():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, parent=0),
             _span(2, 3.0, 5.0, parent=1)]
    st = tracing.self_times(spans)
    assert st[0] == pytest.approx(6.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(2.0)


def test_self_time_adjacent_and_overlapping_children():
    adjacent = [_span(0, 0.0, 5.0), _span(1, 1.0, 2.0, 0), _span(2, 2.0, 4.0, 0)]
    assert tracing.self_times(adjacent)[0] == pytest.approx(2.0)
    # overlapping children (another thread) count their union once; a child
    # reaching past its parent's end is clipped
    overlap = [_span(0, 0.0, 5.0), _span(1, 1.0, 3.0, 0), _span(2, 2.0, 7.0, 0)]
    assert tracing.self_times(overlap)[0] == pytest.approx(1.0)


def test_layer_metrics_counts_and_ratios():
    spans = [
        _span(0, 0.0, 4.0, name="hyperc.search"),
        _span(1, 0.5, 1.0, 0, "hyperc.ratios", {"rows": 3, "dim": 8, "bytes": 3072}),
        _span(2, 1.0, 2.0, 0, "hyperc.ratios", {"rows": 5, "dim": 8, "bytes": 5120}),
        _span(3, 5.0, 6.0, None, "kernels.expand",
              {"rows_in": 10, "terms_out": 15, "slots": 40}),
    ]
    m = tracing.layer_metrics(spans)
    assert m["hyperc.ratios.calls"] == 2
    assert m["hyperc.ratios.rows"] == 8
    assert m["hyperc.ratios.dim"] == 8
    assert m["hyperc.search.self_s"] == pytest.approx(2.5)
    assert m["hyperc.search.batches_per_search"] == 2.0
    assert m["kernels.expand.yield"] == pytest.approx(15 / 40)
    assert m["clt.support.max_rows"] == 10
    assert m["semigroup.choi.calls"] == 0


# ---------------------------------------------------------------- wrappers


def _references():
    from qhyper import cli, hyperc, linalg, state

    return {
        "state.get_density": state.get_density,
        "hyperc.get_density": hyperc.get_density,
        "cli.get_density": cli.get_density,
        "linalg.schatten_norm": linalg.schatten_norm,
        "hyperc.schatten_norm": hyperc.schatten_norm,
        "state.schatten_norm": state.schatten_norm,
        "cli.schatten_norm": cli.schatten_norm,
        "cli.cmd_choi": cli.cmd_choi,
        "cli.COMMANDS[choi]": cli.COMMANDS["choi"],
        "RatioEvaluator.ratios": hyperc.RatioEvaluator.__dict__["ratios"],
    }


def test_install_patches_every_binding_and_uninstall_restores_it():
    from qhyper import hyperc

    before = _references()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _references()
        assert all(during[k] is not before[k] for k in before), \
            [k for k in before if during[k] is before[k]]
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((2, 3, 3))
        hyperc.bcl_check(A, B, 1.5)
    finally:
        tracer.uninstall()
    after = _references()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == set()
    conv = [s for s in tracer.spans if s.name == "hyperc.convexity"]
    norms = [s for s in tracer.spans if s.name == "linalg.schatten"]
    assert len(conv) == 1 and len(norms) == 4
    # the calls through hyperc's own binding nest under the convexity span
    assert all(s.parent == conv[0].sid for s in norms)


def test_missing_entry_is_reported_absent_not_raised():
    from qhyper import linalg

    before = linalg.schatten_norm
    tracer = tracing.Tracer()
    tracer.install([("linalg.schatten", "qhyper.linalg", "schatten_norm", None),
                    ("kernels.expand", "qhyper._kernels", "no_such_kernel", None),
                    ("clt.epsneg", "qhyper.clt", "NoSuchClass.epsneg", None)])
    tracer.uninstall()
    assert linalg.schatten_norm is before
    absent = tracing.absent_metrics(tracer.absent)
    assert "kernels.expand.calls" in absent and "clt.support.max_rows" in absent
    assert "clt.epsneg.s" in absent
    assert "linalg.schatten.s" not in absent


# ---------------------------------------------------------------- results


def test_digest_mismatch_fails_the_whole_round():
    res = {"rounds": [
        {"ok": [True, True], "digest": "a", "traced": False, "wall": 1.0,
         "latency": [0.1, 0.2]},
        {"ok": [True, True], "digest": "b", "traced": True, "wall": 1.5,
         "latency": [0.1, 0.2]},
        {"ok": [True, False], "digest": "a", "traced": False, "wall": 1.1,
         "latency": [0.3, 0.4]},
    ]}
    s = run.summarize(res)
    assert (s["attempted"], s["failed"]) == (6, 3)
    assert s["per_op_median"] == pytest.approx([0.2, 0.3])
    assert s["traced_walls"] == [1.5]


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------- rounds


class _Fake:
    ROUNDS = 3

    def __init__(self, pause=0.0):
        self.ops = [("a", lambda: time.sleep(pause) or 1.0), ("b", lambda: 2.0)]

    def before_round(self):
        pass

    def verdicts(self, values):
        return [v is not None for v in values]

    def digest_parts(self, values):
        return [repr(v).encode() for v in values]


def test_rounds_are_fixed_and_traced_ones_alternate():
    rounds = worker.run_rounds(_Fake())
    assert [r["traced"] for r in rounds] == [False, False, False]
    assert len({r["digest"] for r in rounds}) == 1
    rounds = worker.run_rounds(_Fake(), tracing.Tracer())
    assert [r["traced"] for r in rounds] == [False, True, False]


def test_hard_stop_cuts_rounds_but_keeps_one_traced():
    assert len(worker.run_rounds(_Fake(0.01), hard_stop_s=0.0)) == 1
    rounds = worker.run_rounds(_Fake(0.01), tracing.Tracer(), hard_stop_s=0.0)
    assert [r["traced"] for r in rounds] == [False, True]


# ---------------------------------------------------------------- verdicts


def _cli_out(records, passed=True):
    return json.dumps({"config": {}, "records": records, "pass": passed})


def test_campaign_checks_can_fail_where_the_cli_cannot():
    falls = [{"m": 10, "abs_err": 1.5}, {"m": 40, "abs_err": 0.4}]
    assert worker._error_falls_with_m(falls, 0)
    assert not worker._error_falls_with_m(falls[::-1], 0)
    assert worker._no_violation([{"violation": False, "max_ratio": 1.0}], 0)
    assert not worker._no_violation([{"violation": True, "max_ratio": 1.2}], 0)
    assert not worker._no_violation([{"violation": False, "max_ratio": 0.9}], 0)
    assert not worker._closed_form_holds([{"closed_form_resid": 1e-6}], 0)


def test_dense_check_compares_against_the_dense_model():
    from qhyper.clt import clt_estimate

    seed = 5
    mean, _ = clt_estimate(worker.DENSE_WORD, 0.0, (1.0,), worker.DENSE_M,
                           worker.DENSE_SAMPLES, seed)
    rec = {"m": worker.DENSE_M, "mean_re": mean.real, "mean_im": mean.imag}
    assert worker._dense_agrees([rec], seed)
    assert not worker._dense_agrees([dict(rec, mean_re=mean.real + 1e-9)], seed)


def test_campaign_verdict_needs_exit_zero_pass_and_the_check():
    camp = worker.Campaign.__new__(worker.Campaign)
    camp.seed = 0
    camp.checks = [None, worker._error_falls_with_m]
    falls = [{"m": 10, "abs_err": 1.5}, {"m": 40, "abs_err": 0.4}]
    assert camp.verdicts([(0, _cli_out([])), (0, _cli_out(falls))]) == [True, True]
    assert camp.verdicts([(1, _cli_out([])), (0, _cli_out(falls[::-1]))]) == \
        [False, False]
    assert camp.verdicts([(0, _cli_out([], False)), None]) == [False, False]
