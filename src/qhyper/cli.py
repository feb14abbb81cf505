"""Command-line entry point: verification campaigns with CSV/JSON emission.

Every command takes only the flags it reads, each with a default parsed
as if typed, and echoes the value each flag took (plus the package
version).  It runs a deterministic sweep for the given
seed and exits 0 when all asserted checks pass, 1 on usage errors, and 2
when a numerical assertion fails (failing records go to stderr).  Grid
flags accept a single number, a comma list, or start:stop:step.  ``_TAKES``
declares the box of values each numeric flag admits, and the parser checks
every value of a flag against it.  Records are written as they are encoded,
``BLOCK`` at a time, so memory does not grow with their number.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .babyfock import GEN, get_model, relation_residuals
from .clt import MAX_CLT_M, convergence_report
from .hyperc import (RatioEvaluator, convexity_margins, necessary_time_exact,
                     sufficient_time, violation_search)
from .linalg import (expansion_second_order, expansion_via_frechet, richardson_second_coeff,
                     schatten_norm)
from .qfock import QParams, moment_operator, moment_pairings, parse_word
from .semigroup import choi_identity_residual, choi_matrix
from .signs import MAX_N, ModelParams, SignTable, check_weights
from .state import SOLVE_TOL, IllConditionedSolve, density_solve


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


# a start:stop:step grid holds at most this many values, counted before any is built: the
# box check of a 1e6-value grid took 1.5 s and 41 MB, one of 1e5 values 0.15 s and 4 MB,
# and `lpnorm --p 1:100000:1` ran 3.0 s and wrote 22 MB
MAX_GRID = 10 ** 5


def _grid(text: str) -> tuple:
    """(start, step, count) of an inclusive start:stop:step grid, no value built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(x) for x in parts)
    if not (np.isfinite(start) and np.isfinite(stop) and 0 < step < np.inf):
        raise ValueError(f"grid needs finite bounds and a finite positive step, got {text!r}")
    return start, step, int(np.floor((stop - start) / step + 1e-9)) + 1


def parse_values(text: str) -> list:
    """A single number, a comma list, or an inclusive start:stop:step grid of at most
    MAX_GRID values; the result must hold at least one value, and only finite ones."""
    text = text.strip()
    if ":" in text:
        start, step, count = _grid(text)
        if count > MAX_GRID:
            raise ValueError(f"grid holds {count} values, more than {MAX_GRID}: {text!r}")
        values = [start + k * step for k in range(count)]
    else:
        values = [float(x) for x in text.split(",") if x]
    if not values or not np.all(np.isfinite(values)):
        raise ValueError(f"need at least one value, all finite, got {text!r}")
    return values


class Box(NamedTuple):
    """The values a numeric flag admits, and the flag's argparse type: lo to hi, each end
    closed ("[", "]") or open ("(", ")"), every value a multiple of step (0: any), one value
    or a grid.  A flag with a scalar type takes one value of it; a grid keeps its text."""

    lo: float
    hi: float = math.inf
    ends: str = "[)"
    step: int = 0
    one: bool = False
    scalar: type | None = None

    def __str__(self):
        lo, hi = (f"{x:g}" if float(f"{x:g}") == x else repr(x) for x in (self.lo, self.hi))
        what = "one value" if self.one else ("values", "integers", "even integers")[self.step]
        return f"{what} in {self.ends[0]}{lo}, {hi}{self.ends[1]}"

    def _admit(self, values):
        bad = [v for v in values if not ((self.lo < v if self.ends[0] == "(" else self.lo <= v)
                                         and (v < self.hi if self.ends[1] == ")" else v <= self.hi)
                                         and (not self.step or v % self.step == 0))]
        if bad:
            raise argparse.ArgumentTypeError(f"takes {self}, got {bad[0]}")

    def __call__(self, text: str):
        try:
            # a grid's first two values and its last, before any value is built
            if not self.scalar and ":" in text:
                start, step, count = _grid(text.strip())
                self._admit((start, start + step, start + (count - 1) * step)[:max(count, 0)])
            values = [self.scalar(text)] if self.scalar else parse_values(text)
        except (ValueError, OverflowError) as exc:    # int(inf) in a grid's length
            raise argparse.ArgumentTypeError(
                f"takes {self}, got {text!r}" if self.scalar else str(exc)) from None
        self._admit(values)
        if self.one and len(values) != 1:
            raise argparse.ArgumentTypeError(f"takes {self}, got {text!r}")
        return values[0] if self.scalar else text


def _weights(text: str, n: int) -> tuple:
    """--mu for indices 1..n: one value for every index, or exactly n values."""
    mu = parse_values(text)
    if len(mu) not in (1, n):
        raise ValueError(f"--mu takes one value or {n}, got {text!r}")
    return tuple(mu * n if len(mu) == 1 else mu)


def _model_from_args(args) -> ModelParams:
    if args.sign_file is not None:
        with open(args.sign_file, "r", encoding="utf-8") as fh:
            signs = SignTable.from_json(fh.read())
    else:
        signs = SignTable.random(args.n, args.sign_seed)
    return ModelParams(n=args.n, mu=_weights(args.mu, args.n), signs=signs)


# ============================================================================
# commands: each returns its records, a list or an iterator that yields them;
# the run passes when every record does
# ============================================================================


def _check(name: str, residual: float, tol: float) -> dict:
    """The record of a check that passes when its residual is at most tol."""
    return {"check": name, "residual": float(residual), "tol": tol, "pass": bool(residual <= tol)}


def cmd_relations(args):
    # the relations and norms of the dense pi(g_i) of the 2**n irrep, built with the model's
    # own sign table: the 4**n model is 2**n copies of the irrep
    model = get_model(_model_from_args(args))
    gens = np.stack([model.irrep_letter(GEN, i) for i in range(1, model.n + 1)])
    residuals = relation_residuals(gens, model.params.signs.matrix(), model.mu)
    records = [_check(name, val, args.tol) for name, val in residuals.items()]
    norms = np.linalg.svd(gens, compute_uv=False)[:, 0]    # ||g_i||: the largest singular value
    for i, (mu, nrm) in enumerate(zip(model.mu, norms), 1):
        expect = float(np.sqrt(mu ** 2 + mu ** -2))
        records.append(_check(f"opnorm_gamma_{i}", abs(nrm - expect) / expect, 1e-10))
    records.append(_check("monomial_condition", model.embedding_condition(), float("inf")))
    return records


def cmd_density(args):
    # the 4**n model is 2**n copies of the irrep, where pi(D) = diag(rho) / 2**n:
    # traces over C**(4**n) are 2**n times those over C**(2**n)
    model = get_model(_model_from_args(args))
    _, _, rho = model.irrep()
    records = [_check("trace_one", abs(float(rho.sum()) - 1.0), 1e-12),
               _check("positive", np.maximum(0.0, -rho.min()), 1e-12)]
    try:
        coeffs = density_solve(model)
    except IllConditionedSolve as exc:     # the solve's own bound failed: the check fails
        records.append(_check("solve_agrees", exc.residual, SOLVE_TOL))
    else:
        solved = model.irrep_sum(coeffs, np.inf)[0]       # sum_w c_w pi(M_w)
        D = np.diag(rho / rho.size)
        records.append(_check("solve_agrees", np.linalg.norm(solved - D) / np.linalg.norm(D),
                              args.tol))
    gens = [model.irrep_letter(GEN, i) for i in range(1, model.n + 1)]
    for i, (mu, g) in enumerate(zip(model.mu, gens), 1):
        # trace(D g*_i g_i) = trace(rho pi(g_i)* pi(g_i)), and the Schatten 2-norm of
        # g_i D**(1/2) is the Frobenius norm of pi(g_i) rho**(1/2)
        records.append(_check(f"trace_gstar_g_{i}", abs(np.sum(g ** 2 * rho) - mu ** -2), 1e-10))
        records.append(_check(f"l2_norm_gamma_{i}",
                              abs(np.linalg.norm(g * rho ** 0.5) - 1.0 / mu), 1e-10))
    # D**(1/p) g_k = mu_k**(4/p) g_k D**(1/p), the factor 2**(-n/p) cancelling: pi(g_k) is
    # one-sparse, so on its support (r, c) compare rho_r**(1/p) with (mu_k**4 rho_c)**(1/p),
    # each at most 1 (mu_k**4 rho_c = rho_r there); np.max keeps a NaN, Python's max drops it
    for p in (1.0, 1.5, 2.0, 3.0):
        resid = []
        for mu, g in zip(model.mu, gens):
            r, c = np.nonzero(g)
            lhs, rhs = rho[r] ** (1.0 / p), (mu ** 4 * rho[c]) ** (1.0 / p)
            resid.append(np.abs(lhs - rhs) / np.maximum(lhs, rhs))
        records.append(_check(f"modular_p_{p}", np.max(np.concatenate(resid)), 1e-9))
    return records


def cmd_lpnorm(args):
    model = get_model(_model_from_args(args))
    ps = parse_values(args.p)
    _, _, rho = model.irrep()       # ||g_i D**(1/p)||_p = ||pi(g_i) rho**(1/p)||_p
    records = []
    for i in range(1, model.n + 1):
        mu = model.mu[i - 1]
        g = model.irrep_letter(GEN, i)
        for p in ps:
            nrm = schatten_norm(g * rho ** (1.0 / p), p)
            ratio = float(nrm / mu ** (1.0 - 4.0 / p))
            rec = {"index": i, "p": p, "norm": nrm, "growth_ratio": ratio,
                   "pass": bool(0.7 <= ratio <= 1.5) if mu >= 2 else True}
            closed = float((mu ** 2 + mu ** -2) ** 0.5 * (1.0 + mu ** 4) ** (-1.0 / p))
            rec["closed_form"] = closed
            rec["closed_form_resid"] = abs(nrm - closed) / closed
            rec["pass"] = bool(rec["pass"] and rec["closed_form_resid"] <= 1e-10)
            records.append(rec)
    return records


# choi evaluates about this many (t, mu) points at a time, a 256 KiB stack of Choi
# matrices: at 512 points the calls per chunk made `choi --t 0:200:0.01` 1.7x slower
CHOI_CHUNK = 2048


def cmd_choi(args):
    # the inputs are checked here, the records yielded as they are pulled
    times = np.array(parse_values(args.t))
    mus = check_weights(parse_values(args.mu))
    return _choi_records(times, mus, args.tol)


def _choi_records(times, mus, tol):
    # CHOI_CHUNK // M times at a time: one t-column per mu, (T, M, 4, 4) in the records'
    # t-major order, and one stacked eigensolve per chunk; LAPACK still sees one 4x4 at a time
    step = max(1, CHOI_CHUNK // len(mus))
    for start in range(0, times.size, step):
        chunk = times[start:start + step]
        mins = np.linalg.eigvalsh(np.stack([choi_matrix(chunk, mu) for mu in mus], axis=1))
        resids = np.stack([choi_identity_residual(chunk, mu) for mu in mus], axis=1)
        for t, row_min, row_resid in zip(chunk.tolist(), mins.min(axis=-1).tolist(),
                                         resids.tolist()):
            for mu, mine, resid in zip(mus, row_min, row_resid):
                yield {"t": t, "mu": mu, "min_eigenvalue": mine, "identity_residual": resid,
                       "pass": mine >= -tol and resid <= tol}


# convexity draws, groups and evaluates this many samples at a time, so its memory
# does not grow with --samples
CONVEXITY_CHUNK = 1000


def cmd_convexity(args):
    ps = parse_values(args.p)
    mus = check_weights(parse_values(args.mu))
    qs = parse_values(args.q)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    worst = {}

    def fold(key, margins):     # np.min keeps a NaN, Python's min drops one not first
        worst[key] = float(np.min(margins, initial=worst.get(key, np.inf)))

    # the sample order is drawn CONVEXITY_CHUNK pairs at a time, in one call: sample k is
    # m = 2 + k % 15 and takes 4 m**2 normals, Re A, Im A, Re B and Im B, from its offset.
    # Samples of a chunk that share (m, p, q) take their margins in one call, folded before
    # the next chunk
    for start in range(0, args.samples, CONVEXITY_CHUNK):
        groups, size = {}, 0
        for k in range(start, min(start + CONVEXITY_CHUNK, args.samples)):
            m = 2 + k % 15
            at, mu = groups.setdefault((m, ps[k % len(ps)], qs[k % len(qs)]), ([], []))
            at.append(size)
            mu.append(mus[(k // len(ps)) % len(mus)])
            size += 4 * m * m
        draw = rng.standard_normal(size)
        for (m, p, q), (at, mu) in groups.items():
            # set in place, two parts at a time: a gather of all four and the sums
            # re + 1j * im left the benchmark's campaign peaking 0.3-0.9 MB higher
            re_A = np.add.outer(at, np.arange(m * m)).reshape(-1, m, m)
            A, B = np.empty((2, len(at), m, m), dtype=np.complex128)
            A.real, A.imag = draw[re_A], draw[re_A + m * m]
            B.real, B.imag = draw[re_A + 2 * m * m], draw[re_A + 3 * m * m]
            mu = np.array(mu)
            bcl, asym, dual = convexity_margins(A, B, p, mu, q)
            fold(("bcl", p, 1.0), bcl)
            for w in np.unique(mu).tolist():
                fold(("asym", p, w), asym[mu == w])
                fold(("dual", q, w), dual[mu == w])
    return [{"inequality": k[0], "exponent": k[1], "mu": k[2],
             "min_margin": v, "pass": bool(v >= -args.tol)} for k, v in sorted(worst.items())]


def cmd_hyperc_verify(args):
    params = _model_from_args(args)
    model = get_model(params)
    ps = parse_values(args.p)
    records = []
    for p in ps:
        theta = sufficient_time(p, params.mu)
        t = float(-0.5 * np.log(theta)) if args.t is None else parse_values(args.t)[0]
        wit = violation_search(model, t, p, "primal", restarts=args.restarts,
                               seed=args.seed)
        records.append({"p": p, "t": t, "exp_minus_2t": float(np.exp(-2 * t)),
                        "threshold": theta, "max_ratio": wit.ratio,
                        "pass": bool(wit.ratio <= 1.0 + args.tol)})
    return records


def cmd_hyperc_search(args):
    params = _model_from_args(args)
    model = get_model(params)
    ps = parse_values(args.p)
    ts = parse_values(args.t)
    records = []
    for p in ps:
        for t in ts:
            wit = violation_search(model, t, p, args.direction, restarts=args.restarts,
                                   seed=args.seed)
            records.append({"direction": args.direction, "p": p, "t": t,
                            "exp_minus_2t": float(np.exp(-2 * t)),
                            "max_ratio": wit.ratio,
                            "violation": bool(wit.ratio > 1.0 + 1e-9),
                            "pass": True})
    return records


def cmd_necessary_time(args):
    mus = parse_values(args.mu)
    eps = 1e-2
    records = []
    for pp in parse_values(args.p):
        for mu in mus:
            thr = necessary_time_exact(int(pp) // 2, mu)
            model = get_model(ModelParams.make(1, mu, SignTable.all_anticommuting(1)))
            wit = np.array([1.0, eps, 0.0, 0.0])    # 1 + eps g on the words 1, g, g*, y
            t_hi = float(-0.5 * np.log(1.05 * thr.exact))
            t_lo = float(-0.5 * np.log(0.95 * thr.exact))
            r_above = RatioEvaluator(model, t_hi, pp, "dual").ratio(wit)
            r_below = RatioEvaluator(model, t_lo, pp, "dual").ratio(wit)
            records.append({
                "p_prime": pp, "mu": mu, "exact": thr.exact,
                "paper_display": thr.paper_display, "differs": thr.differs,
                "ratio_above": r_above, "ratio_below": r_below,
                "pass": bool(r_above > 1.0 and r_below < 1.0)})
    return records


def cmd_perturb(args):
    ps = parse_values(args.p)
    mus = parse_values(args.mu)
    # the finite differences take the step 0.1 / sqrt(closed_form), since f(0) = trace(rho)
    # = 1: frechet_vs_fd stayed below 2e-9 for p up to P_MAX and every mu the model takes
    records = []
    for mu in mus:
        model = get_model(ModelParams.make(1, mu, SignTable.all_anticommuting(1)))
        _, _, rho = model.irrep()       # D = diag(rho) in the 2-dimensional irrep
        g = model.irrep_letter(GEN, 1)
        # trace(D g* g) = mu**-2 and trace(D g g*) = mu**2, whatever p is; the second is
        # compared relative to mu**2, which reaches about 6e153
        tr_gg = float(np.sum(rho * g.conj() * g).real)
        tr_ggs = float(np.sum(rho[:, None] * g * g.conj()).real)
        log_mu = np.log1p(mu - 1.0)
        for p in ps:
            d = rho ** (1.0 / p)
            closed = expansion_second_order(d, g, p, 4.0 / p * log_mu)
            frech = expansion_via_frechet(d, g, p)
            fd = richardson_second_coeff(
                lambda e: schatten_norm((np.eye(d.size) + e * g) * d, p) ** p,
                0.1 / np.sqrt(abs(closed)))
            special = (p / (2.0 * mu ** 2)) * (mu ** 4 - 1.0) / float(np.expm1(8.0 / p * log_mu))
            rec = {
                "p": p, "mu": mu, "closed_form": closed, "frechet": frech,
                "finite_diff": fd,
                "frechet_vs_fd": abs(frech - fd) / abs(fd),
                "closed_vs_special": abs(closed - special) / abs(special),
                "trace_gstar_g_resid": abs(tr_gg - mu ** -2),
                "trace_g_gstar_resid": abs(tr_ggs - mu ** 2) / mu ** 2,
            }
            rec["pass"] = bool(rec["frechet_vs_fd"] <= args.tol
                               and rec["closed_vs_special"] <= 1e-6
                               and rec["trace_gstar_g_resid"] <= 1e-10
                               and rec["trace_g_gstar_resid"] <= 1e-10)
            records.append(rec)
    return records


def cmd_fock_moment(args):
    letters = parse_word(args.word)
    q = parse_values(args.q)[0]
    n = max(i for _, i in letters)
    mus = _weights(args.mu, n)
    qp = QParams(q=q, n=n, mu=mus)
    val_pair, scale = moment_pairings(letters, qp, scale=True)
    rec = {"word": args.word, "q": q, "mu": ",".join(repr(m) for m in mus),
           "value_re": val_pair.real, "value_im": val_pair.imag}
    # the operator route needs q > -1.  The bound is relative to the pairing terms' summed
    # magnitude past 1, the scale of both routes' rounding: (g+g*)**10 is 678 at q = 0.9,
    # where they differ by 4.3e-12, and at --q=-0.999 --mu 1e30 the terms of
    # g*g*ggg*g*ggg*g reach 1e60 and cancel to 1e51, which the routes give 2.5e-8 apart.
    # Where every term has one sign the scale is |value|
    rec["oracle_disagreement"] = abs(moment_operator(letters, qp) - val_pair) if q > -1.0 else 0.0
    rec["pass"] = bool(rec["oracle_disagreement"] <= 1e-12 * max(1.0, scale))
    return [rec]


def cmd_clt(args):
    letters = parse_word(args.word)
    q = parse_values(args.q)[0]
    mus = _weights(args.mu, max(i for _, i in letters))
    rows = convergence_report(letters, q, mus, parse_values(args.m), args.samples, args.seed)
    records = [{"m": r["m"], "mean_re": r["mean"].real, "mean_im": r["mean"].imag,
                "stderr": r["stderr"], "oracle_re": r["oracle"].real,
                "oracle_im": r["oracle"].imag, "abs_err": r["abs_err"],
                "pass": True} for r in rows]
    if args.tol is not None:
        records[-1]["pass"] = bool(records[-1]["abs_err"] <= args.tol)
    return records


COMMANDS = {
    "relations": cmd_relations,
    "density": cmd_density,
    "lpnorm": cmd_lpnorm,
    "choi": cmd_choi,
    "convexity": cmd_convexity,
    "hyperc-verify": cmd_hyperc_verify,
    "hyperc-search": cmd_hyperc_search,
    "necessary-time": cmd_necessary_time,
    "perturb": cmd_perturb,
    "fock-moment": cmd_fock_moment,
    "clt": cmd_clt,
}

# the argparse spec of each flag that has one, keyed by its option string
_FLAGS = {
    "word": {"help": "word expression, e.g. '(g+g*)^4' or 'g*g'"},
    "--n": {"help": "number of gaussian indices"},
    "--mu": {"help": "weight value or grid; a model or a word takes one, or one per index"},
    "--sign-file": {"help": "JSON sign table {n, pairs}"},
    "--p": {"help": "exponent value or grid"},
    "--t": {"help": "time value or grid"},
    "--q": {"help": "deformation parameter"},
    "--m": {"help": "sum length value or grid"},
    "--tol": {"help": "tolerance"},
    "--direction": {"choices": ("primal", "dual")},
    "--emit": {"choices": ("csv", "json")},
}

# perturb passes s = (4/p) log(mu) to the closed form and expm1((8/p) log(mu)) to the special
# formula, never the floats mu**(4/p) and mu**(8/p), which round within 8 (mu - 1) / p of 1:
# at mu = 1 + 1e-8, closed_vs_special stays below 5e-9 for every p up to P_MAX and below 1e-6
# up to about 1e10, and frechet_vs_fd below 1e-4 up to about 3e8.  The cap is set by the
# largest weights instead: c_coeff, about mu**4 p**2 / (64 log(mu)**2), overflows near
# p = 2870 at the largest mu a model takes (about 8.19e76)
P_MAX = 2800.0

# a weight's upper end is the models' own (check_weights, ModelParams); a tolerance is finite:
# nan fails every comparison, a negative one every record, and inf passes every one
_MU = Box(1.0)
_TOL = Box(0.0, scalar=float)
_COUNT = Box(1, step=1, scalar=int)
# exp(-2 t deg_w) is 0 in floats from t = 373 on; past about 7e306, 2 t deg_w (deg_w up to
# 2 MAX_N) overflows, and at t = 1.8e308 the identity's -2 t * 0 = -inf * 0 is NaN
_TIME = Box(0.0, 1e300, "[]")
_Q = Box(-1.0, 1.0, one=True)

# the flags each command reads, each with its default as a user would type it (None: no
# default) and the box of values it admits (None: not numeric), and those every command takes
_MODEL = {"--n": ("1", Box(1, MAX_N, "[]", 1, scalar=int)), "--mu": ("1", _MU),
          "--sign-file": (None, None)}
_TAKES = {
    "relations": {**_MODEL, "--tol": ("1e-12", _TOL)},
    "density": {**_MODEL, "--tol": ("1e-9", _TOL)},
    "lpnorm": {**_MODEL, "--p": ("2,3,4,6", Box(1.0))},
    "choi": {"--t": ("0:5:0.01", _TIME), "--mu": ("1:4:0.1", _MU), "--tol": ("1e-12", _TOL)},
    # the dual constant C(q / (q - 1), mu) needs q / (q - 1) > 1, which rounds to 1 past
    # q = 2**53 (about 9.007e15: 1e16 exited 1 from C_of_mu)
    "convexity": {"--p": ("1.1:2:0.1", Box(1.0, 2.0, "(]")), "--mu": ("1,1.5,2,3", _MU),
                  "--q": ("2,3,4", Box(2.0, 1e15, "[]")), "--samples": ("1000", _COUNT),
                  "--tol": ("1e-10", _TOL)},
    # sufficient_time takes 1 < p < 2
    "hyperc-verify": {**_MODEL, "--p": ("1.25,1.5,1.75", Box(1.0, 2.0, "()")),
                      "--t": (None, _TIME._replace(one=True)), "--restarts": ("1000", _COUNT),
                      "--tol": ("1e-9", _TOL)},
    "hyperc-search": {**_MODEL, "--p": ("1.5", Box(1.0)), "--t": ("0.5", _TIME),
                      "--restarts": ("200", _COUNT), "--direction": ("primal", None)},
    # the witness moves the dual ratio by about 2.5e-6 / mu**2; by mu = 1e5 it rounds to 1.0.
    # Its size eps is fixed, so as p' grows the higher-order terms catch up with the eps**2
    # one: at mu = 1, ratio_above - 1 falls from 2.5e-6 at p' = 4 to 3.6e-8 at p' = 2900
    # and below 0 past p' = 2944
    "necessary-time": {"--p": ("4,6", Box(4, 2900, "[]", 2)),
                       "--mu": ("1,1.3,2", Box(1.0, 1000.0, "[]"))},
    "perturb": {"--p": ("3,4,6", Box(2.0, P_MAX, "(]")), "--mu": ("1.2,1.5,2", Box(1.0 + 1e-8)),
                "--tol": ("1e-4", _TOL)},
    "fock-moment": {"word": (None, None), "--q": ("0", _Q), "--mu": ("1", _MU)},
    "clt": {"word": (None, None), "--q": ("0", _Q), "--mu": ("1", _MU),
            "--m": ("5,10,20,40", Box(1, MAX_CLT_M, "[]", 1)), "--samples": ("100", _COUNT),
            "--tol": (None, _TOL)},
}
# seeds key Philox generators, which take unsigned 64-bit keys
_SEED = Box(0, 2 ** 64 - 1, "[]", 1, scalar=int)
_COMMON = {"--sign-seed": ("0", _SEED), "--seed": ("0", _SEED), "--emit": ("json", None)}


@functools.cache     # once per process: a rebuild was two thirds of `lpnorm --n 2`
def build_parser() -> _Parser:
    parser = _Parser(prog="qhyper", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qhyper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _TAKES.items():
        # no abbreviations: --m would otherwise stand for --mu, --t for --tol
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, (default, box) in {**flags, **_COMMON}.items():
            p.add_argument(flag, default=default, type=box, **_FLAGS.get(flag, {}))
    return parser


def _config_echo(args) -> dict:
    return dict(sorted(vars(args).items()), version=__version__)


# records are pulled, encoded and written this many at a time, each block dropped once
# written: choi's default grid alone gives 15,531 records
BLOCK = 512


def _blocks(records):
    """The records in lists of BLOCK, the last one shorter."""
    records = iter(records)
    return iter(lambda: list(itertools.islice(records, BLOCK)), [])


def emit(args, records, write) -> list:
    """Write the records' document through write, BLOCK records at a time, each block
    encoded in one go; return the failing records.  Records hold plain str, bool, int and
    float values, among them a bool "pass"."""
    cfg = _config_echo(args)
    failed = []
    if args.emit == "json":
        # json.dumps(..., indent=2) byte for byte, each block's records from one call of
        # the C encoder (indent makes json fall back to its pure-Python one): they are
        # flat dicts of plain values and JSON escapes each newline in a string, so
        # "},\n      {" occurs only between two records
        encoder = json.JSONEncoder(separators=(",\n      ", ": "))
        between = "\n    },\n    {\n      "
        config = json.dumps(cfg, indent=2).replace("\n", "\n  ")
        write(f'{{\n  "config": {config},\n  "records": [')
        sep = "\n    {\n      "         # before the first record
        for block in _blocks(records):
            if not all(type(rec) is dict and rec for rec in block) or \
                    not {type(v) for rec in block for v in rec.values()} <= {str, bool, int, float}:
                raise TypeError("records must be non-empty flat dicts of plain values")
            write(sep + encoder.encode(block).replace("},\n      {", between)[2:-2])
            sep = between
            failed += [rec for rec in block if not rec["pass"]]
        write(("\n    }\n  ]" if sep == between else "]") +
              f',\n  "pass": {json.dumps(not failed)}\n}}\n')
        return failed
    provenance = json.dumps(cfg, sort_keys=True)
    # csv writes a float as repr() and quotes the provenance, which holds '"'.  It quotes
    # a field holding a character of the line terminator, so "\r\n" has it quote a bare
    # "\r" as well as "\n"; each row's own "\r\n" is then cut back to "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def line(row) -> str:
        writer.writerow(row)
        text = buf.getvalue()[:-2] + "\n"
        buf.seek(0)
        buf.truncate()
        return text

    fields = None
    for block in _blocks(records):
        if fields is None:
            fields = list(block[0].keys())
            write(line(fields + ["provenance"]))
        write("".join(line([*map(rec.get, fields), provenance]) for rec in block))
        failed += [rec for rec in block if not rec["pass"]]
    if fields is None:
        write(line(["pass", "provenance"]))
    return failed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call: entries may be rebound.  The first block is pulled before
        # anything is written, so a command's error exits 1 with stdout empty
        records = iter(COMMANDS[args.command](args))
        first = list(itertools.islice(records, BLOCK))
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    failed = emit(args, itertools.chain(first, records), sys.stdout.write)
    for rec in failed:
        sys.stderr.write("FAIL: " + json.dumps(rec) + "\n")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
