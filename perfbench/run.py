"""qhyper benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload {search,campaign} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program under test is the ``src/qhyper`` next to this
directory.  The workload runs in a fresh worker process (``worker.py``), so
set-up time and peak memory belong to that workload alone.  The worker runs
the workload's fixed number of rounds; ``--seconds`` is recorded, and
``run_seconds`` in BENCHMARK.json is sized to those rounds.  Set-up time is
measured from outside, from process start to the worker's READY line, on
the run's own worker and on ``SETUP_PROBES`` extra workers that only set up;
the median is reported.

The second-to-last stdout line is ``{"info": ...}`` (machine, versions,
verdict details, each op's median latency, digests).  The last line is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from the
traced rounds plus the tracing overhead.  Exit status 0 means a result was
printed; a failed verdict still exits 0 with ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from worker import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "op_geomean_ms": "ms", "op_tail_ms": "ms"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.spans": "count"}
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 160.0


def per_layer_units() -> dict:
    units = {m: unit for m, (unit, _) in tracing.LAYER_METRICS.items()}
    units.update(TRACE_UNITS)
    return units


class BenchError(RuntimeError):
    pass


def git_revision():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def start_worker(cmd, env) -> tuple:
    """Run one worker to completion; return (seconds to READY, later stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited {proc.returncode}")
    return ready, rest


def summarize(res: dict) -> dict:
    """Attempted/failed ops and the latencies of the untraced rounds.

    ``per_op_median`` is each op's median latency over those rounds.
    """
    rounds = res["rounds"]
    ref = rounds[0]["digest"]
    attempted = failed = 0
    for r in rounds:
        attempted += len(r["ok"])
        # a digest that differs from the first round's fails the whole round
        failed += len(r["ok"]) if r["digest"] != ref else r["ok"].count(False)
    untraced = [r for r in rounds if not r["traced"]]
    per_op = [statistics.median(op) for op in zip(*(r["latency"] for r in untraced))]
    return {"attempted": attempted, "failed": failed, "per_op_median": per_op,
            "untraced_walls": [r["wall"] for r in untraced],
            "traced_walls": [r["wall"] for r in rounds if r["traced"]]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qhyper" / "__init__.py").is_file():
        sys.stderr.write(f"no qhyper sources under {ROOT / 'src'}\n")
        return 2

    # the benchmark sets no qhyper knob: QHYPER_* stays unset in the worker
    stripped = sorted(k for k in os.environ if k.startswith("QHYPER_"))
    env = {k: v for k, v in os.environ.items() if k not in stripped}
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    spans_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        setups = [start_worker(worker + ["--setup-only"], env)[0]
                  for _ in range(SETUP_PROBES)]
        extra = ["--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(spans_file)]
        ready, out = start_worker(worker + extra, env)
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    setups.append(ready)
    res = json.loads([ln for ln in out.splitlines() if ln.strip()][-1])
    summ = summarize(res)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "git_revision": git_revision(), "env": res["env"],
        "qhyper_env_stripped": stripped,
        "rounds": len(res["rounds"]),
        "fail_frac": summ["failed"] / summ["attempted"],
        "op_median_ms": dict(zip(res["labels"],
                                 (x * 1e3 for x in summ["per_op_median"]))),
        "setup_samples_s": setups,
        "digests": sorted({r["digest"] for r in res["rounds"]}),
        "errors": [e for r in res["rounds"] for e in r["errors"]][:5],
    }
    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_s"] = (statistics.median(summ["traced_walls"])
                                      - statistics.median(summ["untraced_walls"]))
        values["trace.spans"] = res["spans_per_round"]
        units = per_layer_units()
        info.update(absent=res["absent"], computed=list(tracing.COMPUTED),
                    spans_file=str(spans_file.relative_to(ROOT)))
    else:
        values = {
            "verdict_s": statistics.median(summ["untraced_walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            # taken over per-op medians, so neither depends on the number of
            # rounds.  A geometric mean, not the middle op: the middle of
            # campaign's 15 commands is one short Python-bound call whose
            # speed on a shared host spread past any bound from run to run
            "op_geomean_ms": statistics.geometric_mean(summ["per_op_median"]) * 1e3,
            "op_tail_ms": max(summ["per_op_median"]) * 1e3,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": summ["failed"] == 0,
        "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
