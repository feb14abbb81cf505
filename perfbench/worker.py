"""One workload in one fresh process: set up, print READY, run closed-loop rounds.

Started by ``run.py``; not meant to be run by hand.  A round runs the
workload's ops one after another (each waits for the previous result),
then checks every verdict and digests the verdict values.  Each workload
runs a fixed number of rounds with the same seed (``ROUNDS``), so every
round must give a byte-identical digest, and the number of latencies a
metric is taken from is the same on every commit.  With ``--trace 1``
rounds alternate between untraced and traced; the traced ones give the
per-layer metrics and the difference of the two kinds of round is the
tracing overhead.

The last stdout line is one JSON object with the raw round data; ``run.py``
turns it into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent

# no round is started that would end later than this after the first round
# began, so a run ends inside its 180 s limit even on a much slower commit
HARD_STOP_S = 120.0


class Search:
    """Primal violation search on criterion 6's two n=3 models."""

    MODELS = (((1.0, 1.75, 2.5), 900), ((2.5, 2.5, 2.5), 901))
    PS = (1.25, 1.5, 1.75)
    RESTARTS = 60
    ROUNDS = 4

    def __init__(self, seed: int):
        import numpy as np
        from qhyper import hyperc
        from qhyper.babyfock import get_model
        from qhyper.signs import ModelParams
        from qhyper.state import get_density

        self.seed = seed
        self.hyperc = hyperc
        self.ops = []
        for mu, sign_seed in self.MODELS:
            params = ModelParams.make(3, mu, sign_seed=sign_seed)
            model = get_model(params)
            if hasattr(model, "monomial_stack"):
                model.monomial_stack()
            get_density(model)
            for p in self.PS:
                t = float(-0.5 * np.log(hyperc.sufficient_time(p, params.mu)))
                self.ops.append((f"search mu={mu} p={p}", self._op(model, t, p)))

    def _op(self, model, t, p):
        return lambda: self.hyperc.violation_search(
            model, t, p, "primal", restarts=self.RESTARTS, seed=self.seed).ratio

    def before_round(self):
        pass

    def verdicts(self, values):
        # the identity seed gives exactly 1, so a ratio below 1 means the
        # search skipped its seeds
        return [isinstance(v, float) and 1.0 - 1e-12 <= v <= 1.0 + 1e-9 for v in values]

    def digest_parts(self, values):
        return [repr(v).encode() for v in values]


def _closed_form_holds(records, seed):
    # the CLI checks the closed form only for n=1
    return all(r["closed_form_resid"] <= 1e-10 for r in records)


def _no_violation(records, seed):
    # the CLI only reports; the identity seed gives exactly 1
    return all(r["violation"] is False and r["max_ratio"] >= 1.0 - 1e-12
               for r in records)


def _error_falls_with_m(records, seed):
    return records[-1]["abs_err"] < records[0]["abs_err"]


DENSE_WORD, DENSE_M, DENSE_SAMPLES = "(s+s*)^4", 3, 10


def _dense_agrees(records, seed):
    """The sparse CLT mean at m=3 equals the dense base-model mean over the
    same sign samples (q=0, mu=1, as the CLI defaults)."""
    import numpy as np
    from qhyper.clt import dense_reference_moment, parse_word, sample_signs

    (rec,) = records
    letters = parse_word(DENSE_WORD)
    dense = np.mean([dense_reference_moment(
        letters, sample_signs(0.0, 1, DENSE_M, seed, sample_index=s), (1.0,))
        for s in range(DENSE_SAMPLES)])
    return rec["m"] == DENSE_M and \
        abs(complex(rec["mean_re"], rec["mean_im"]) - dense) <= 1e-12


class Campaign:
    """Fifteen in-process ``qhyper`` CLI calls, stdout captured.

    Every call must exit 0 with ``"pass": true``.  Where the CLI's own
    verdict cannot fail for these arguments, the call's check adds one.
    """

    CALLS = (
        (["relations", "--n", "5"], None),
        (["density", "--n", "4"], None),
        (["lpnorm", "--n", "2"], _closed_form_holds),
        (["choi"], None),
        (["convexity", "--samples", "1000"], None),
        (["hyperc-verify", "--n", "2", "--mu", "1,1.5", "--restarts", "150"], None),
        (["hyperc-search", "--n", "1", "--direction", "dual"], _no_violation),
        (["necessary-time"], None),
        (["perturb"], None),
        (["fock-moment", "(g+g*)^8"], None),
        (["fock-moment", "(g+g*)^10"], None),
        # criterion 10: the error at m=40 is within 0.05 and below that at m=5
        (["clt", "(s+s*)^4", "--q=-0.5", "--m", "5,40", "--samples", "60",
          "--tol", "0.05"], _error_falls_with_m),
        # large sparse support (up to 2373 rows into one expand and 190k terms
        # out of it per sample at m=40), the bulk expand-and-combine path
        (["clt", "(s+s*)^6", "--q", "0.5", "--m", "10,40", "--samples", "20"],
         _error_falls_with_m),
        # s*s is mu^-2 for every sign sample
        (["clt", "s*s", "--mu", "1.7", "--m", "40", "--samples", "10",
          "--tol", "1e-12"], None),
        (["clt", DENSE_WORD, "--m", str(DENSE_M), "--samples", str(DENSE_SAMPLES)],
         _dense_agrees),
    )
    ROUNDS = 5

    def __init__(self, seed: int):
        from qhyper import babyfock, cli

        self.cli = cli
        self.babyfock = babyfock
        self.seed = seed
        self.checks = [check for _, check in self.CALLS]
        self.ops = [(" ".join(argv), self._op(argv + ["--seed", str(seed),
                                                      "--sign-seed", str(seed)]))
                    for argv, _ in self.CALLS]

    def _op(self, argv):
        def op():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            return code, buf.getvalue()
        return op

    def before_round(self):
        # every call builds its own model, as a user's separate call does
        clear = getattr(self.babyfock.get_model, "cache_clear", None)
        if clear is not None:
            clear()

    def verdicts(self, values):
        out = []
        for v, check in zip(values, self.checks):
            try:
                doc = json.loads(v[1])
                ok = v[0] == 0 and doc["pass"] is True and \
                    (check is None or bool(check(doc["records"], self.seed)))
            except (TypeError, ValueError, KeyError, IndexError, AttributeError,
                    ImportError):  # a check that cannot run fails its op
                ok = False
            out.append(ok)
        return out

    def digest_parts(self, values):
        return [b"" if v is None else v[1].encode() for v in values]


WORKLOADS = {"search": Search, "campaign": Campaign}


def run_round(wl, tracer, index):
    """One closed-loop pass over the workload's ops; returns the round record."""
    wl.before_round()
    if tracer is not None:
        tracer.round = index
        tracer.install()
    values, latency, errors = [], [], []
    start = time.perf_counter()
    try:
        for op_id, (label, fn) in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = op_id
            t0 = time.perf_counter()
            try:
                val = fn()
            except Exception:  # an op that raises is a failed verdict, not an abort
                val = None
                errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            latency.append(time.perf_counter() - t0)
            values.append(val)
        ok = wl.verdicts(values)
        digest = hashlib.sha256()
        for part in wl.digest_parts(values):
            digest.update(part)
            digest.update(b"\0")
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
    return {"wall": wall, "traced": tracer is not None, "latency": latency,
            "ok": ok, "digest": digest.hexdigest(), "errors": errors}


def run_rounds(wl, tracer=None, hard_stop_s=HARD_STOP_S) -> list:
    """The workload's ``ROUNDS`` rounds; with a tracer, every second one traced.

    Only ``hard_stop_s`` cuts the run short, and a traced run always gets
    one untraced and one traced round.
    """
    rounds = []
    start = time.perf_counter()
    for index in range(wl.ROUNDS):
        walls = [r["wall"] for r in rounds]
        if len(rounds) >= (2 if tracer is not None else 1) and \
                time.perf_counter() - start + max(walls) > hard_stop_s:
            break
        traced = tracer is not None and index % 2 == 1
        rounds.append(run_round(wl, tracer if traced else None, index))
    return rounds


def _blas_threads():
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import importlib.metadata
    import importlib.util
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "qhyper_env": sorted(k for k in os.environ if k.startswith("QHYPER_")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file the traced spans go to")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qhyper

    src = (ROOT / "src").resolve()
    if src not in Path(qhyper.__file__).resolve().parents:
        sys.stderr.write(f"qhyper imported from {qhyper.__file__}, not from {src}\n")
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    rounds = run_rounds(wl, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rounds": rounds, "labels": [label for label, _ in wl.ops],
              "peak_rss_mb": rss_mb, "env": environment()}
    if tracer is not None:
        per_round = [tracing.layer_metrics([s for s in tracer.spans if s.round == i])
                     for i, r in enumerate(rounds) if r["traced"]]
        result["layers"] = {m: statistics.median(pr[m] for pr in per_round)
                            for m in tracing.LAYER_METRICS}
        result["absent"] = tracing.absent_metrics(tracer.absent)
        result["spans_per_round"] = len(tracer.spans) / len(per_round)
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps([s.sid, s.name, s.start, s.end, s.parent,
                                         s.op, s.round, s.counts]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
