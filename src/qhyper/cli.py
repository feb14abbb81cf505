"""Command-line entry point: verification campaigns with CSV/JSON emission.

Every command takes only the flags it reads, each with a default parsed
as if typed, and echoes the value each flag took (plus the package
version).  It runs a deterministic sweep for the given
seed and exits 0 when all asserted checks pass, 1 on usage errors, and 2
when a numerical assertion fails (failing records go to stderr).  Grid
flags accept a single number, a comma list, or start:stop:step; an empty
value or grid, a non-finite value, a count (--samples, --restarts) below 1,
a negative --tol, or more than one value for a single-valued flag is a
usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import __version__
from .babyfock import GEN, get_model, relation_residuals
from .clt import convergence_report
from .hyperc import (RatioEvaluator, convexity_margins, necessary_time_exact,
                     sufficient_time, violation_search)
from .linalg import (expansion_second_order, expansion_via_frechet, richardson_second_coeff,
                     schatten_norm)
from .qfock import QParams, moment_operator, moment_pairings, parse_word
from .semigroup import choi_identity_residual, choi_matrix
from .signs import ModelParams, SignTable, check_weights
from .state import SOLVE_TOL, IllConditionedSolve, density_solve


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def parse_values(text: str) -> list:
    """A single number, a comma list, or an inclusive start:stop:step grid;
    the result must hold at least one value, and only finite ones."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(x) for x in parts)
        if not (np.isfinite(start) and np.isfinite(stop) and 0 < step < np.inf):
            raise ValueError(f"grid needs finite bounds and a finite positive step, got {text!r}")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        values = [start + k * step for k in range(count)]
    else:
        values = [float(x) for x in text.split(",") if x]
    if not values or not np.all(np.isfinite(values)):
        raise ValueError(f"need at least one value, all finite, got {text!r}")
    return values


def _count(text: str) -> int:
    """argparse type of --samples and --restarts: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite value of at least 0."""
    tol = float(text)
    if not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return tol


def _one(text: str, flag: str) -> float:
    """The value of a single-valued flag."""
    values = parse_values(text)
    if len(values) != 1:
        raise ValueError(f"{flag} takes one value, got {text!r}")
    return values[0]


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
# commands: each returns its records; the run passes when every record does
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
    for p in ps:
        if p < 1.0:
            raise ValueError(f"lpnorm needs p >= 1, got {p}")
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


def cmd_choi(args):
    ts = parse_values(args.t)
    mus = check_weights(parse_values(args.mu))

    # one t-column per mu, (T, M, 4, 4) in the records' t-major order;
    # one stacked eigensolve over the grid, LAPACK still sees one 4x4 at a time
    times = np.array(ts)
    mins = np.linalg.eigvalsh(np.stack([choi_matrix(times, mu) for mu in mus], axis=1))
    resids = np.stack([choi_identity_residual(times, mu) for mu in mus], axis=1)
    records = [{"t": t, "mu": mu, "min_eigenvalue": mine, "identity_residual": resid,
                "pass": mine >= -args.tol and resid <= args.tol}
               for t, row_min, row_resid in zip(ts, mins.min(axis=-1).tolist(),
                                                 resids.tolist())
               for mu, mine, resid in zip(mus, row_min, row_resid)]
    return records


# convexity draws, groups and evaluates this many samples at a time, so its memory
# does not grow with --samples
CONVEXITY_CHUNK = 1000


def cmd_convexity(args):
    ps = parse_values(args.p)
    mus = check_weights(parse_values(args.mu))
    qs = parse_values(args.q)
    for p in ps:
        if not 1.0 < p <= 2.0:
            raise ValueError(f"need 1 < p <= 2, got {p}")
    for q in qs:
        if q < 2.0:
            raise ValueError(f"need q >= 2, got {q}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    worst = {}

    def fold(key, margins):
        worst[key] = min(worst.get(key, np.inf), *margins.tolist())

    # the sample order is drawn CONVEXITY_CHUNK pairs at a time; pairs of a chunk that
    # share (m, p, q) take their margins in one call, folded before the next chunk
    for start in range(0, args.samples, CONVEXITY_CHUNK):
        stacks = {}
        for k in range(start, min(start + CONVEXITY_CHUNK, args.samples)):
            m = 2 + k % 15
            A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            stacks.setdefault((m, ps[k % len(ps)], qs[k % len(qs)]), []).append(
                (A, B, mus[(k // len(ps)) % len(mus)]))
        for (_, p, q), pairs in stacks.items():
            A, B, mu = map(np.array, zip(*pairs))
            bcl, asym, dual = convexity_margins(A, B, p, mu, q)
            fold(("bcl", p, 1.0), bcl)
            for w in np.unique(mu).tolist():
                fold(("asym", p, w), asym[mu == w])
                fold(("dual", q, w), dual[mu == w])
    records = [{"inequality": k[0], "exponent": k[1], "mu": k[2],
                "min_margin": v, "pass": bool(v >= -args.tol)}
               for k, v in sorted(worst.items())]
    return records


def cmd_hyperc_verify(args):
    params = _model_from_args(args)
    model = get_model(params)
    ps = parse_values(args.p)
    records = []
    for p in ps:
        theta = sufficient_time(p, params.mu)
        t = float(-0.5 * np.log(theta)) if args.t is None else _one(args.t, "--t")
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
    pps = parse_values(args.p)
    mus = parse_values(args.mu)
    # the witness moves the dual ratio by about 2.5e-6 / mu**2; by mu = 1e5 it rounds to 1.0.
    # Its size eps is fixed, so as p' grows the higher-order terms catch up with the eps**2
    # one: at mu = 1, ratio_above - 1 falls from 2.5e-6 at p' = 4 to 3.6e-8 at p' = 2900
    # and below 0 past p' = 2944
    if max(pps) > 2900.0:
        raise ValueError(f"necessary-time needs --p at most 2900, got {max(pps)}")
    if max(mus) > 1000.0:
        raise ValueError(f"necessary-time needs --mu at most 1000, got {max(mus)}")
    eps = 1e-2
    records = []
    for pp in pps:
        n_half = int(round(pp / 2.0))
        if abs(pp - 2 * n_half) > 1e-12 or n_half < 2:
            raise ValueError(f"necessary-time needs p' an even integer >= 4, got {pp}")
        for mu in mus:
            thr = necessary_time_exact(n_half, mu)
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


# perturb passes s = (4/p) log(mu) to the closed form and expm1((8/p) log(mu)) to the special
# formula, never the floats mu**(4/p) and mu**(8/p), which round within 8 (mu - 1) / p of 1:
# at mu = 1 + 1e-8, closed_vs_special stays below 5e-9 for every p up to P_MAX and below 1e-6
# up to about 1e10, and frechet_vs_fd below 1e-4 up to about 3e8.  The cap is set by the
# largest weights instead: c_coeff, about mu**4 p**2 / (64 log(mu)**2), overflows near
# p = 2870 at the largest mu a model takes (about 8.19e76)
P_MAX = 2800.0


def cmd_perturb(args):
    ps = parse_values(args.p)
    mus = parse_values(args.mu)
    # the finite differences take the step 0.1 / sqrt(closed_form), since f(0) = trace(rho)
    # = 1: frechet_vs_fd stayed below 2e-9 for p up to P_MAX and every mu the model takes
    if min(ps) <= 2.0:
        raise ValueError(f"perturb needs p > 2, got {min(ps)}")
    if max(ps) > P_MAX:
        raise ValueError(f"perturb needs --p at most {P_MAX:g}, got {max(ps)}")
    if min(mus) < 1.0 + 1e-8:
        raise ValueError(f"perturb needs --mu at least 1 + 1e-8, got {args.mu}")
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
    q = _one(args.q, "--q")
    n = max(i for _, i in letters)
    mus = _weights(args.mu, n)
    qp = QParams(q=q, n=n, mu=mus)
    val_pair = moment_pairings(letters, qp)
    rec = {"word": args.word, "q": q, "mu": ",".join(repr(m) for m in mus),
           "value_re": val_pair.real, "value_im": val_pair.imag}
    if q > -1.0:
        val_op = moment_operator(letters, qp)
        rec["oracle_disagreement"] = abs(val_op - val_pair)
        rec["pass"] = bool(rec["oracle_disagreement"] <= 1e-12)
    else:
        rec["oracle_disagreement"] = 0.0
        rec["pass"] = True
    return [rec]


def cmd_clt(args):
    letters = parse_word(args.word)
    q = _one(args.q, "--q")
    mus = _weights(args.mu, max(i for _, i in letters))
    ms = parse_values(args.m)
    if any(v != int(v) for v in ms):
        raise ValueError(f"--m takes integers, got {args.m!r}")
    rows = convergence_report(letters, q, mus, ms, args.samples, args.seed)
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

# each flag's argparse spec, keyed by its option string
_FLAGS = {
    "word": {"help": "word expression, e.g. '(g+g*)^4' or 'g*g'"},
    "--n": {"type": int, "help": "number of gaussian indices"},
    "--mu": {"help": "weight value or grid; a model or a word takes one, or one per index"},
    "--sign-file": {"help": "JSON sign table {n, pairs}"},
    "--p": {"help": "exponent value or grid"},
    "--t": {"help": "time value or grid"},
    "--q": {"help": "deformation parameter"},
    "--m": {"help": "sum length value or grid"},
    "--samples": {"type": _count},
    "--restarts": {"type": _count},
    "--tol": {"type": _tolerance, "help": "tolerance"},
    "--direction": {"choices": ("primal", "dual")},
    "--sign-seed": {"type": int},
    "--seed": {"type": int},
    "--emit": {"choices": ("csv", "json")},
}

# the flags each command reads, each with its default as a user would type it (None:
# no default), and those every command takes
_MODEL = {"--n": "1", "--mu": "1", "--sign-file": None}
_TAKES = {
    "relations": {**_MODEL, "--tol": "1e-12"},
    "density": {**_MODEL, "--tol": "1e-9"},
    "lpnorm": {**_MODEL, "--p": "2,3,4,6"},
    "choi": {"--t": "0:5:0.01", "--mu": "1:4:0.1", "--tol": "1e-12"},
    "convexity": {"--p": "1.1:2:0.1", "--mu": "1,1.5,2,3", "--q": "2,3,4",
                  "--samples": "1000", "--tol": "1e-10"},
    "hyperc-verify": {**_MODEL, "--p": "1.25,1.5,1.75", "--t": None, "--restarts": "1000",
                      "--tol": "1e-9"},
    "hyperc-search": {**_MODEL, "--p": "1.5", "--t": "0.5", "--restarts": "200",
                      "--direction": "primal"},
    "necessary-time": {"--p": "4,6", "--mu": "1,1.3,2"},
    "perturb": {"--p": "3,4,6", "--mu": "1.2,1.5,2", "--tol": "1e-4"},
    "fock-moment": {"word": None, "--q": "0", "--mu": "1"},
    "clt": {"word": None, "--q": "0", "--mu": "1", "--m": "5,10,20,40", "--samples": "100",
            "--tol": None},
}
_COMMON = {"--sign-seed": "0", "--seed": "0", "--emit": "json"}


@functools.cache     # once per process: a rebuild was two thirds of `lpnorm --n 2`
def build_parser() -> _Parser:
    parser = _Parser(prog="qhyper", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qhyper {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _TAKES.items():
        # no abbreviations: --m would otherwise stand for --mu, --t for --tol
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, default in {**flags, **_COMMON}.items():
            p.add_argument(flag, default=default, **_FLAGS[flag])
    return parser


def _config_echo(args) -> dict:
    return dict(sorted(vars(args).items()), version=__version__)


def emit(args, records, passed) -> str:
    """Records hold plain str, bool, int and float values; passed is a bool."""
    cfg = _config_echo(args)
    if args.emit == "json":
        # json.dumps(..., indent=2) byte for byte, the records from one call of the
        # C encoder (indent makes json fall back to its pure-Python one): they are
        # flat dicts of plain values and JSON escapes each newline in a string, so
        # "},\n      {" occurs only between two records
        if not all(type(rec) is dict and rec for rec in records) or \
                not {type(v) for rec in records for v in rec.values()} <= {str, bool, int, float}:
            raise TypeError("records must be non-empty flat dicts of plain values")
        body = json.JSONEncoder(separators=(",\n      ", ": ")).encode(records)
        body = body.replace("},\n      {", "\n    },\n    {\n      ")
        body = "[\n    {\n      " + body[2:-2] + "\n    }\n  ]" if records else body
        config = json.dumps(cfg, indent=2).replace("\n", "\n  ")
        return (f'{{\n  "config": {config},\n  "records": {body},\n'
                f'  "pass": {json.dumps(passed)}\n}}\n')
    buf = io.StringIO()
    provenance = json.dumps(cfg, sort_keys=True)
    fields = list(records[0].keys()) if records else ["pass"]
    # csv writes a float as repr() and quotes the provenance, which holds '"'.  It quotes
    # a field holding a character of the line terminator, so "\r\n" has it quote a bare
    # "\r" as well as "\n"; each row's own "\r\n" is then cut back to "\n"
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in [fields + ["provenance"], *([*map(rec.get, fields), provenance] for rec in records)]:
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2])
        buf.seek(0)
        buf.truncate()
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = COMMANDS[args.command](args)     # looked up per call: entries may be rebound
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    passed = all(rec["pass"] for rec in records)
    sys.stdout.write(emit(args, records, passed))
    if not passed:
        for rec in records:
            if not rec["pass"]:
                sys.stderr.write("FAIL: " + json.dumps(rec) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
