"""Spans around qhyper's public entry points, recorded from outside the package.

A ``Tracer`` installs wrappers around the functions listed in ``ENTRIES``.
Each wrapper records one span (id, name, start, end, parent span, op id,
round) plus the counts its counter takes from the call's arguments and
result.  Spans stay in memory; ``layer_metrics`` turns the spans of one
round into the per-layer metrics named in ``LAYER_METRICS``.

A function imported by name into other modules (``from .state import
get_density``) has one binding per importing module, and ``cli`` also keeps
its commands in the ``COMMANDS`` dict, so ``install`` rebinds every
reference to the original it finds in the loaded ``qhyper`` modules, not
just the defining one.  ``uninstall`` puts every original back.  An entry
whose function no longer exists is skipped and listed in ``absent``; its
metrics read 0 and are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


def _rows(a) -> int:
    shape = getattr(a, "shape", ())
    return int(shape[0]) if len(shape) > 1 else 1


def _count_ratios(args, kwargs, result):
    ev, coeffs = args[0], args[1]
    rows = _rows(coeffs)
    dim = int(ev.mat_stack.shape[-1])
    return {"rows": rows, "dim": dim, "bytes": rows * dim * dim * 16}


def _count_stack(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _count_apply_beta(args, kwargs, result):
    return {"bytes": 2 * int(args[0].nbytes)}


def _count_expand(args, kwargs, result):
    rows_in = int(args[0].shape[0])
    return {"rows_in": rows_in, "terms_out": int(result[1].shape[0]),
            "slots": rows_in * int(args[2].shape[0])}


def _count_density_solve(args, kwargs, result):
    n = int(args[0].n)
    return {"bytes": 4 ** n * 16 ** n * 16}


def _count_items(args, kwargs, result):
    return {"items": len(result)}


# (span name, module, qualified name, counter).  A counter maps the call's
# (args, kwargs, result) to exact counts attached to the span.
ENTRIES = [
    ("hyperc.ratios", "qhyper.hyperc", "RatioEvaluator.ratios", _count_ratios),
    ("hyperc.evaluator", "qhyper.hyperc", "RatioEvaluator.__init__", None),
    ("hyperc.search", "qhyper.hyperc", "violation_search", None),
    ("hyperc.convexity", "qhyper.hyperc", "bcl_check", None),
    ("hyperc.convexity", "qhyper.hyperc", "asym_convexity_check", None),
    ("hyperc.convexity", "qhyper.hyperc", "dual_convexity_check", None),
    ("babyfock.stack", "qhyper.babyfock", "BabyFock.monomial_stack", _count_stack),
    ("babyfock.relations", "qhyper.babyfock", "BabyFock.verify_relations", None),
    ("babyfock.reconstruct", "qhyper.babyfock", "BabyFock.reconstruct", None),
    ("babyfock.opnorm", "qhyper.babyfock", "opnorm", None),
    ("kernels.apply_beta", "qhyper._kernels", "apply_beta_batch", _count_apply_beta),
    ("kernels.expand", "qhyper._kernels", "expand_ops_sparse", _count_expand),
    ("clt.sample_moment", "qhyper.clt", "sample_moment", None),
    ("clt.sample_signs", "qhyper.clt", "sample_signs", None),
    ("clt.epsneg", "qhyper.clt", "BigSignSample.epsneg", None),
    ("state.density", "qhyper.state", "get_density", None),
    ("state.density_solve", "qhyper.state", "density_solve", _count_density_solve),
    ("state.haagerup", "qhyper.state", "haagerup_norm", None),
    ("state.modular", "qhyper.state", "modular_check", None),
    ("linalg.schatten", "qhyper.linalg", "schatten_norm", None),
    ("linalg.psd_power", "qhyper.linalg", "psd_power", None),
    ("linalg.frechet", "qhyper.linalg", "expansion_via_frechet", None),
    ("linalg.richardson", "qhyper.linalg", "richardson_second_coeff", None),
    ("semigroup.choi", "qhyper.semigroup", "choi_matrix", None),
    ("semigroup.choi", "qhyper.semigroup", "choi_identity_residual", None),
    ("qfock.moment_operator", "qhyper.qfock", "moment_operator", None),
    ("qfock.moment_pairings", "qhyper.qfock", "moment_pairings", None),
    ("cli.run_grid", "qhyper.cli", "run_grid", _count_items),
    ("cli.emit", "qhyper.cli", "emit", None),
]

CLI_COMMANDS = ("relations", "density", "lpnorm", "choi", "convexity",
                "hyperc-verify", "hyperc-search", "necessary-time", "perturb",
                "fock-moment", "clt")
ENTRIES += [(f"cli.{cmd}", "qhyper.cli", "cmd_" + cmd.replace("-", "_"), None)
            for cmd in CLI_COMMANDS]

# Per-layer metrics: name -> (unit, how).  ``how`` is one of
# ("calls", span), ("s", span), ("self_s", span), ("sum", span, count),
# ("max", span, count), ("ratio", span, count, count), ("per_parent", span,
# parent span).  Values are per round.
LAYER_METRICS = {
    "hyperc.ratios.calls": ("count", ("calls", "hyperc.ratios")),
    "hyperc.ratios.s": ("s", ("s", "hyperc.ratios")),
    "hyperc.ratios.rows": ("count", ("sum", "hyperc.ratios", "rows")),
    "hyperc.ratios.dim": ("count", ("max", "hyperc.ratios", "dim")),
    "hyperc.ratios.bytes": ("B", ("sum", "hyperc.ratios", "bytes")),
    "hyperc.search.self_s": ("s", ("self_s", "hyperc.search")),
    "hyperc.search.batches_per_search": (
        "count", ("per_parent", "hyperc.ratios", "hyperc.search")),
    "hyperc.evaluator.s": ("s", ("s", "hyperc.evaluator")),
    "hyperc.convexity.calls": ("count", ("calls", "hyperc.convexity")),
    "hyperc.convexity.s": ("s", ("s", "hyperc.convexity")),
    "babyfock.stack.s": ("s", ("s", "babyfock.stack")),
    "babyfock.stack.bytes": ("B", ("max", "babyfock.stack", "bytes")),
    "babyfock.relations.s": ("s", ("s", "babyfock.relations")),
    "babyfock.reconstruct.calls": ("count", ("calls", "babyfock.reconstruct")),
    "babyfock.reconstruct.s": ("s", ("s", "babyfock.reconstruct")),
    "babyfock.opnorm.s": ("s", ("s", "babyfock.opnorm")),
    "kernels.apply_beta.calls": ("count", ("calls", "kernels.apply_beta")),
    "kernels.apply_beta.s": ("s", ("s", "kernels.apply_beta")),
    "kernels.apply_beta.bytes": ("B", ("sum", "kernels.apply_beta", "bytes")),
    "kernels.expand.calls": ("count", ("calls", "kernels.expand")),
    "kernels.expand.s": ("s", ("s", "kernels.expand")),
    "kernels.expand.rows_in": ("count", ("sum", "kernels.expand", "rows_in")),
    "kernels.expand.terms_out": ("count", ("sum", "kernels.expand", "terms_out")),
    "kernels.expand.yield": (
        "ratio", ("ratio", "kernels.expand", "terms_out", "slots")),
    "clt.support.max_rows": ("count", ("max", "kernels.expand", "rows_in")),
    "clt.sample_moment.calls": ("count", ("calls", "clt.sample_moment")),
    "clt.sample_moment.s": ("s", ("s", "clt.sample_moment")),
    "clt.sample_moment.self_s": ("s", ("self_s", "clt.sample_moment")),
    "clt.sample_signs.calls": ("count", ("calls", "clt.sample_signs")),
    "clt.sample_signs.s": ("s", ("s", "clt.sample_signs")),
    "clt.epsneg.s": ("s", ("s", "clt.epsneg")),
    "state.density.s": ("s", ("s", "state.density")),
    "state.density_solve.s": ("s", ("s", "state.density_solve")),
    "state.density_solve.bytes": ("B", ("sum", "state.density_solve", "bytes")),
    "state.haagerup.calls": ("count", ("calls", "state.haagerup")),
    "state.haagerup.s": ("s", ("s", "state.haagerup")),
    "state.modular.s": ("s", ("s", "state.modular")),
    "linalg.schatten.calls": ("count", ("calls", "linalg.schatten")),
    "linalg.schatten.s": ("s", ("s", "linalg.schatten")),
    "linalg.psd_power.s": ("s", ("s", "linalg.psd_power")),
    "linalg.frechet.s": ("s", ("s", "linalg.frechet")),
    "linalg.richardson.s": ("s", ("s", "linalg.richardson")),
    "semigroup.choi.calls": ("count", ("calls", "semigroup.choi")),
    "semigroup.choi.s": ("s", ("s", "semigroup.choi")),
    "qfock.moment_operator.s": ("s", ("s", "qfock.moment_operator")),
    "qfock.moment_pairings.s": ("s", ("s", "qfock.moment_pairings")),
    **{f"cli.{cmd}.s": ("s", ("s", f"cli.{cmd}")) for cmd in CLI_COMMANDS},
    "cli.run_grid.s": ("s", ("s", "cli.run_grid")),
    "cli.run_grid.items": ("count", ("sum", "cli.run_grid", "items")),
    "cli.emit.s": ("s", ("s", "cli.emit")),
}

# Exact counts computed from array shapes, not measured traffic.
COMPUTED = ("babyfock.stack.bytes", "hyperc.ratios.rows", "hyperc.ratios.bytes",
            "hyperc.search.batches_per_search", "kernels.apply_beta.bytes",
            "kernels.expand.rows_in", "kernels.expand.terms_out",
            "clt.support.max_rows", "state.density_solve.bytes")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    round: int | None
    counts: dict | None = None


@dataclass
class _Patch:
    container: object
    key: str
    original: object
    is_dict: bool


@dataclass
class Tracer:
    """Span recorder; ``op`` and ``round`` tag every span recorded next."""

    spans: list = field(default_factory=list)
    absent: set = field(default_factory=set)
    op: int | None = None
    round: int | None = None
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _ids: itertools.count = field(default_factory=itertools.count)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        """Return fn wrapped so every call records a span named ``name``.

        Spans on a thread other than the caller's (the ``run_grid`` pool)
        have no parent: the span stack is per thread.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = None
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    # the entry's signature changed since the counter was written
                    self.absent.add(name + ":counts")
            self.spans.append(Span(sid, name, start, end, parent, self.op,
                                   self.round, counts))
            return result

        return traced

    def install(self, entries=ENTRIES) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, qualname, counter in entries:
            try:
                owner = importlib.import_module(modname)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(f"{name}:{modname}.{qualname}")
                continue
            wrapped = self.wrap(name, original, counter)
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    self.absent.add(f"{name}:{modname}.{qualname}")
                    continue
                self._patches.append(_Patch(owner, attr, original, False))
                setattr(owner, attr, wrapped)
            else:
                self._rebind(original, wrapped)

    def _rebind(self, original, wrapped) -> None:
        """Replace every reference to ``original`` in the loaded qhyper modules."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qhyper" or modname.startswith("qhyper.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append(_Patch(module, key, original, False))
                    setattr(module, key, wrapped)
                elif type(value) is dict:
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._patches.append(_Patch(value, dkey, original, True))
                            value[dkey] = wrapped

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            if patch.is_dict:
                patch.container[patch.key] = patch.original
            else:
                setattr(patch.container, patch.key, patch.original)
        self._patches.clear()


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it covered by direct children."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metric values over the given spans (one round's worth)."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}

    def counts(span_name, key):
        return [s.counts[key] for s in by_name.get(span_name, ())
                if s.counts and key in s.counts]

    out = {}
    for metric, (_, how) in LAYER_METRICS.items():
        kind, span_name = how[0], how[1]
        group = by_name.get(span_name, ())
        if kind == "calls":
            val = len(group)
        elif kind == "s":
            val = sum(s.end - s.start for s in group)
        elif kind == "self_s":
            val = sum(selfs[s.sid] for s in group)
        elif kind == "sum":
            val = sum(counts(span_name, how[2]))
        elif kind == "max":
            val = max(counts(span_name, how[2]), default=0)
        elif kind == "ratio":
            den = sum(counts(span_name, how[3]))
            val = sum(counts(span_name, how[2])) / den if den else 0.0
        elif kind == "per_parent":
            nparents = len(by_name.get(how[2], ()))
            hits = sum(1 for s in group if names.get(s.parent) == how[2])
            val = hits / nparents if nparents else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = val
    return out


def absent_metrics(absent) -> list:
    """Metrics whose entry, or its counter, could not be traced."""
    spans = {a.split(":", 1)[0] for a in absent}
    return sorted(m for m, (_, how) in LAYER_METRICS.items() if how[1] in spans)
