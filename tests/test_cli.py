"""CLI contract: determinism, exit codes, emission formats."""

import contextlib
import csv
import importlib
import io
import json
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gns_oracle import apply_gamma, haagerup_norm, identity, modular_check, reconstruct
from qhyper import cli, clt, hyperc, state
from qhyper.babyfock import BabyFock, get_model
from qhyper.cli import (COMMANDS, MAX_GRID, _config_echo, build_parser, emit, main,
                        parse_values)
from qhyper.semigroup import choi_identity_residual, choi_matrix
from qhyper.signs import ModelParams, SignTable
from qhyper.state import density_solve, get_density


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:       # the parser rejects a value outside its flag's box
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def emitted(args, records):
    """The text emit writes for the records, and the failing records it returns."""
    buf = io.StringIO()
    failed = emit(args, records, buf.write)
    return buf.getvalue(), failed


def test_parse_values():
    assert parse_values("2") == [2.0]
    assert parse_values("1,1.5,2") == [1.0, 1.5, 2.0]
    grid = parse_values("0:1:0.25")
    assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert parse_values("-0.5") == [-0.5]
    with pytest.raises(ValueError):
        parse_values("0:1:0.25:9")
    with pytest.raises(ValueError):
        parse_values("0:1:-1")
    # a grid is counted before it is built: MAX_GRID values pass, one more does not
    assert len(parse_values(f"1:{MAX_GRID}:1")) == MAX_GRID
    with pytest.raises(ValueError, match="more than"):
        parse_values(f"0:{MAX_GRID}:1")


def test_relations_json_schema(capsys):
    code, out, _ = run(capsys, ["relations", "--n", "2", "--mu", "1,1.5",
                                "--sign-seed", "3"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "records", "pass"}
    assert doc["pass"] is True
    assert doc["config"]["version"]
    assert any(r["check"] == "commutation" for r in doc["records"])


def test_relations_n6(capsys):
    code, out, _ = run(capsys, ["relations", "--n", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert sum(r["check"].startswith("opnorm_gamma_") for r in doc["records"]) == 6


def test_relations_anticommutator_is_relative(capsys):
    # the entries of pi(g_i) are +-sqrt(c_i), c_i = mu_i**2 + mu_i**-2: g*_i g_i + g_i g*_i
    # misses c_i by 1.2e-10 at mu_i = 980.9 and 7.5e-9 at 6618.4, so it is judged relative
    # to c_i
    code, out, _ = run(capsys, ["relations", "--n", "2",
                                "--mu", "980.9114575979521,6618.41746945029"])
    assert code == 0
    records = json.loads(out)["records"]
    assert [r["check"] for r in records] == [
        "commutation", "star_commutation", "square", "anticommutator",
        "opnorm_gamma_1", "opnorm_gamma_2", "monomial_condition"]
    assert records[3]["residual"] <= 1e-15


def test_csv_emission_and_determinism(capsys):
    argv = ["choi", "--t", "0:0.5:0.25", "--mu", "2", "--emit", "csv"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header.split(",")[:4] == ["t", "mu", "min_eigenvalue", "identity_residual"]
    assert header.endswith("provenance")
    assert len(out1.splitlines()) == 1 + 3


def test_choi_matches_per_point_assembly(capsys):
    # the grid evaluated point by point, each record built on its own
    argv = ["choi"]
    tol = 1e-12
    grid = [(t, mu) for t in parse_values("0:5:0.01") for mu in parse_values("1:4:0.1")]
    mins = np.linalg.eigvalsh(np.array([choi_matrix(t, mu) for t, mu in grid])).min(axis=1)
    records = []
    for (t, mu), mine in zip(grid, mins):
        resid = choi_identity_residual(t, mu)
        records.append({"t": t, "mu": mu, "min_eigenvalue": float(mine),
                        "identity_residual": resid,
                        "pass": bool(mine >= -tol and resid <= tol)})
    doc = {"config": _config_echo(build_parser().parse_args(argv)),
           "records": records, "pass": all(r["pass"] for r in records)}
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == json.dumps(doc, indent=2, sort_keys=False, default=repr) + "\n"


PLAIN_RUNS = [
    ["relations", "--n", "2"], ["density", "--n", "2"], ["lpnorm", "--n", "1"],
    ["lpnorm", "--n", "2"], ["choi", "--t", "0,1", "--mu", "1,2"],
    ["convexity", "--samples", "20"], ["hyperc-verify", "--restarts", "5"],
    ["hyperc-search", "--restarts", "5"], ["necessary-time", "--p", "4", "--mu", "2"],
    ["perturb", "--p", "4", "--mu", "2"], ["fock-moment", "(g+g*)^2"],
    ["fock-moment", "(g+g*)^2", "--q=-1"], ["clt", "s*s", "--m", "3", "--samples", "2"],
    ["clt", "s*s", "--m", "3", "--samples", "2", "--tol", "1"],
]


def test_records_hold_plain_values(capsys):
    assert {argv[0] for argv in PLAIN_RUNS} == set(COMMANDS)
    for argv in PLAIN_RUNS:
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        for rec in json.loads(out)["records"]:
            assert all(type(v) in (str, bool, int, float) for v in rec.values()), argv
        code, out, _ = run(capsys, argv + ["--emit", "csv"])
        assert code == 0 and "np." not in out, argv
    # non-finite floats go out as json's NaN and Infinity and as csv's repr
    args = build_parser().parse_args(["choi"])
    records = [{"nan": float("nan"), "inf": float("inf"), "minus_inf": float("-inf"),
                "plain": 1.25, "flag": True, "count": -7, "name": "x", "pass": False}]
    want = json.dumps({"config": _config_echo(args), "records": records, "pass": False},
                      indent=2) + "\n"
    assert emitted(args, records) == (want, records)
    assert '"nan": NaN' in want and '"minus_inf": -Infinity' in want
    args = build_parser().parse_args(["choi", "--emit", "csv"])
    row = emitted(args, records)[0].splitlines()[1]
    assert row.startswith("nan,inf,-inf,1.25,True,-7,x,False,")


JSON_TEXT = st.text(st.sampled_from('}{,"\\\n :aZ\u00e9\u2603\U0001f600'), max_size=8)
JSON_VALUES = st.one_of(JSON_TEXT, st.booleans(), st.integers(), st.floats(),
                        st.sampled_from([float("nan"), float("inf"), float("-inf")]))


JSON_ARGS = build_parser().parse_args(["choi"])


def _with_pass(rec: dict, ok: bool, at: int) -> dict:
    """The record with a "pass" entry put in at position at (or last)."""
    items = list(rec.items())
    return dict(items[:at] + [("pass", ok)] + items[at:])


def records_with_pass(keys, values):
    """Up to 7 records, each a dict of up to 4 entries and a bool "pass" among them:
    7 records cross a block edge at every patched block size (1, 2 and 3)."""
    return st.lists(st.builds(_with_pass, st.dictionaries(keys, values, max_size=4),
                              st.booleans(), st.integers(0, 4)), max_size=7)


# emit encodes and writes BLOCK records at a time: the text must not depend on where the
# blocks end
BLOCK_SIZES = [1, 2, 3, cli.BLOCK]


def emitted_in_blocks(args, records) -> list:
    """emitted() of an iterator over the records, at each of BLOCK_SIZES."""
    out = []
    for block in BLOCK_SIZES:
        with mock.patch.object(cli, "BLOCK", block):
            out.append(emitted(args, iter(records)))
    return out


@settings(max_examples=300, deadline=None)
@given(records_with_pass(JSON_TEXT, JSON_VALUES))
def test_json_emission_matches_indented_dumps(records):
    """The block emitter gives json.dumps(..., indent=2) byte for byte at every block
    size, for strings holding braces, commas, quotes, backslashes, newlines and
    non-ASCII characters, non-finite floats, one-key records and no records,
    and returns the failing records."""
    passed = all(rec["pass"] for rec in records)
    want = json.dumps({"config": _config_echo(JSON_ARGS), "records": records,
                       "pass": passed}, indent=2) + "\n"
    failed = [rec for rec in records if not rec["pass"]]
    assert emitted_in_blocks(JSON_ARGS, records) == [(want, failed)] * len(BLOCK_SIZES)


CSV_ARGS = build_parser().parse_args(["choi", "--emit", "csv"])


CSV_TEXT = st.text(st.sampled_from(',"\n\r :aZ\u00e9'), max_size=6)


@settings(max_examples=300, deadline=None)
@given(records_with_pass(CSV_TEXT, JSON_VALUES | CSV_TEXT))
def test_csv_emission_matches_per_row_writer(records):
    """csv.reader reads back the header, every field of every record and the provenance
    on every row, for fields holding commas, quotes, newlines and carriage returns, empty
    strings, one-field records, records missing a field of the first (read back as ''),
    and no records; the text is the same at every block size, and the failing records
    are returned."""
    (text, failed), *others = emitted_in_blocks(CSV_ARGS, records)
    assert others == [(text, failed)] * len(others)
    assert failed == [rec for rec in records if not rec["pass"]]
    header, *rows = csv.reader(io.StringIO(text, newline=""))
    fields = list(records[0]) if records else ["pass"]
    assert header == fields + ["provenance"]
    provenance = json.dumps(_config_echo(CSV_ARGS), sort_keys=True)
    # csv writes None as '' and any other value as str(), which is repr() for a float
    assert rows == [["" if rec.get(f) is None else str(rec[f]) for f in fields] + [provenance]
                    for rec in records]


def test_csv_emission_reads_back_with_csv_reader():
    """Fields holding a quote, a comma, a newline and U+E000 read back as written,
    and every row carries the same provenance."""
    records = [{"word": 'say "hi", then\nleave', "pass": True},
               {"word": "g\ue000,\ue000\"", "pass": False}]
    header, *rows = csv.reader(io.StringIO(emitted(CSV_ARGS, records)[0]))
    assert header == ["word", "pass", "provenance"]
    assert [row[:2] for row in rows] == [[rec["word"], str(rec["pass"])] for rec in records]
    assert {row[2] for row in rows} == {json.dumps(_config_echo(CSV_ARGS), sort_keys=True)}


def test_json_emission_rejects_nested_records():
    args = build_parser().parse_args(["choi"])
    for records in ([{"a": [1.0]}], [{}], [{"a": np.float64(1.0)}], [[("a", 1)]]):
        with pytest.raises(TypeError, match="flat dicts"):
            emit(args, records, io.StringIO().write)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_bad_value_exit_code(capsys):
    code, _, errtext = run(capsys, ["perturb", "--mu", "1.0"])
    assert code == 1
    assert "error" in errtext


@pytest.mark.parametrize("argv", [["--mu", "1.0000001"],
                                  ["--p", "2.0001,2800", "--mu", "1.00000001,8.18e76"],
                                  ["--mu", "31"], ["--mu", "1e20"], ["--p", "10.5"],
                                  ["--mu", "1700"]],
                         ids=["mu-near-one", "corners", "mu-31", "mu-1e20", "p-10.5", "mu-1700"])
def test_perturb_passes_inside_its_bounds(capsys, argv):
    # mu near 1 once failed closed_vs_special through c_coeff's cancellation; p = 10.5,
    # mu = 31 and mu = 1e20 were usage errors while the finite differences took a fixed
    # step grid, and mu = 1700 failed an absolute trace residual of about 4.7e-10
    code, out, _ = run(capsys, ["perturb", *argv])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_assertion_failure_exit_code(capsys):
    # two samples at m = 5 miss the limit moment by 0.36, far outside the tolerance
    code, out, errtext = run(capsys, ["clt", "(s+s*)^4", "--m", "5", "--samples", "2",
                                      "--tol", "0.01"])
    assert code == 2
    assert "FAIL" in errtext


def test_sign_file_round_trip(tmp_path, capsys):
    table = SignTable.random(2, seed=5)
    path = tmp_path / "signs.json"
    path.write_text(table.to_json(), encoding="utf-8")
    code, out, _ = run(capsys, ["relations", "--n", "2", "--mu", "1.2,2",
                                "--sign-file", str(path)])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_fock_moment_value(capsys):
    code, out, _ = run(capsys, ["fock-moment", "(g+g*)^4", "--q", "0.5", "--mu", "1"])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["records"][0]["value_re"] - 2.5) < 1e-12
    assert doc["records"][0]["oracle_disagreement"] < 1e-12


def test_clt_reports(capsys):
    argv = ["clt", "(s+s*)^4", "--q", "-0.5", "--mu", "1", "--m", "5,15",
            "--samples", "25", "--seed", "7", "--emit", "csv"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",")[:7] == ["m", "mean_re", "mean_im", "stderr",
                                       "oracle_re", "oracle_im", "abs_err"]
    code2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_density_and_lpnorm_match_dense_oracle(capsys):
    # density and lpnorm work in the 2**n irrep; the oracle multiplies dense
    # generators, applies letters to powers of the 4**n density and reconstructs
    # the solved density through the monomial table
    mu = (1.2, 1.7, 2.5)
    argv = ["--n", "3", "--mu", ",".join(map(str, mu)), "--sign-seed", "4"]
    code, out, _ = run(capsys, ["density"] + argv)
    assert code == 0
    resid = {r["check"]: r["residual"] for r in json.loads(out)["records"]}
    code, out, _ = run(capsys, ["lpnorm"] + argv)
    assert code == 0
    norms = json.loads(out)["records"]
    model = get_model(ModelParams.make(3, mu, sign_seed=4))
    D = get_density(model)
    for i in (1, 2, 3):
        g = apply_gamma(model, i, identity(model))
        tr = np.trace(D @ g.conj().T @ g).real
        assert abs(resid[f"trace_gstar_g_{i}"] - abs(tr - mu[i - 1] ** -2)) <= 1e-12
        l2 = haagerup_norm(model, g, 2)
        assert abs(resid[f"l2_norm_gamma_{i}"] - abs(l2 - 1 / mu[i - 1])) <= 1e-12
        recs = [r for r in norms if r["index"] == i]
        assert len(recs) == 4
        for rec in recs:
            assert abs(rec["norm"] - haagerup_norm(model, g, rec["p"])) <= 1e-12
    solved = reconstruct(model, density_solve(model))
    assert abs(resid["solve_agrees"] - np.linalg.norm(solved - D) / np.linalg.norm(D)) <= 1e-12
    for p in (1.0, 1.5, 2.0, 3.0):
        assert abs(resid[f"modular_p_{p}"] - max(modular_check(model, p))) <= 1e-12


def test_density_checks_fail_on_a_swapped_factor(capsys, monkeypatch):
    # rho with lambda_2 <-> 1 - lambda_2 keeps its trace and positivity, but breaks
    # the modular relation at index 2 and no longer matches the solved density
    irrep = BabyFock.irrep

    def swapped(model):
        flip, vals, rho = irrep(model)
        lam = 1.0 / (1.0 + model.mu[1] ** 4)
        on = (np.arange(rho.size) & 2) != 0
        return flip, vals, rho * np.where(on, (1.0 - lam) / lam, lam / (1.0 - lam))

    monkeypatch.setattr(BabyFock, "irrep", swapped)
    code, out, err = run(capsys, ["density", "--n", "3", "--mu", "1.2,1.7,2.5"])
    assert code == 2
    failed = {r["check"] for r in json.loads(out)["records"] if not r["pass"]}
    assert {"solve_agrees", "modular_p_1.0", "modular_p_3.0"} <= failed
    assert {"trace_one", "positive"}.isdisjoint(failed)
    assert "FAIL" in err


def test_density_reports_an_ill_conditioned_solve_as_a_failing_check(capsys, monkeypatch):
    # the scaled blocks meet the solve's bound at every accepted weight, so the block
    # solve is patched to miss by one part in a million: the unit word's block, the
    # one with a non-zero right-hand side, then misses the bound
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1.0 + 1e-6) * solve(a, b))
    code, out, err = run(capsys, ["density", "--n", "3", "--mu", "5"])
    assert code == 2
    records = {r["check"]: r for r in json.loads(out)["records"]}
    solve = records.pop("solve_agrees")
    assert solve["pass"] is False and solve["tol"] == state.SOLVE_TOL
    assert solve["residual"] > state.SOLVE_TOL
    assert all(r["pass"] for r in records.values())
    assert "FAIL" in err and "Traceback" not in err


@pytest.mark.parametrize("n,mu", [(n, mu) for n in (1, 2) for mu in (1e8, 1e20, 1e38)]
                         + [(1, 1e70)])
def test_density_holds_at_large_weights(capsys, n, mu):
    # the modular relation compared on pi(g_k)'s support, in a scale-free form, and the
    # solve's blocks scaled to unit rows: no overflow, no NaN, every check passes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["density", "--n", str(n), "--mu", repr(mu)])
    assert code == 0 and err == ""
    for rec in json.loads(out)["records"]:
        assert np.isfinite(rec["residual"]) and rec["residual"] <= 1e-9, rec


def test_density_fails_a_nan_residual(capsys, monkeypatch):
    # a NaN in rho on the support of both generators reaches every check, and no
    # max drops it: each residual reads NaN and each record fails
    irrep = BabyFock.irrep

    def poisoned(model):
        flip, vals, rho = irrep(model)
        rho = rho.copy()
        rho[1] = np.nan
        return flip, vals, rho

    monkeypatch.setattr(BabyFock, "irrep", poisoned)
    code, out, err = run(capsys, ["density", "--n", "2", "--mu", "1.5,2"])
    assert code == 2
    records = json.loads(out)["records"]
    assert {r["check"] for r in records} >= {"positive", "modular_p_1.0", "modular_p_3.0"}
    assert all(np.isnan(r["residual"]) and r["pass"] is False for r in records)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["density", "--n", "2", "--mu", "1e50"],
                                  ["density", "--n", "1", "--mu", "8.3e76"],
                                  ["hyperc-search", "--n", "3", "--mu", "1e30"]])
def test_weights_whose_density_underflows_exit_code(capsys, argv):
    # prod_i 1/(1 + mu_i**4) below the smallest normal float is a usage error
    code, out, errtext = run(capsys, argv)
    assert code == 1 and out == ""
    assert "below the smallest normal float" in errtext


def test_lpnorm_closed_form_resid_is_relative(capsys):
    # at mu = 1e20 and p = 6 the norm is 4.6e6: 9.3e-10 absolute is 2e-16 relative
    code, out, _ = run(capsys, ["lpnorm", "--n", "1", "--mu", "1e20"])
    assert code == 0
    for rec in json.loads(out)["records"]:
        closed = rec["closed_form"]
        assert rec["closed_form_resid"] == abs(rec["norm"] - closed) / closed
        assert rec["closed_form_resid"] <= 1e-10


@pytest.mark.parametrize("argv", [["density", "--n", "2", "--mu", "1.5,1e100"],
                                  ["lpnorm", "--n", "1", "--mu", "1e200"],
                                  ["relations", "--mu", "1e100"],
                                  ["fock-moment", "g*g", "--mu", "1e200"],
                                  ["clt", "g*g", "--mu", "1e200", "--m", "3"]])
def test_weight_with_infinite_fourth_power_exit_code(capsys, argv):
    code, out, errtext = run(capsys, argv)
    assert code == 1 and out == ""
    assert "weight mu_" in errtext and "**4 is not finite" in errtext


def test_clt_budget_error_names_the_word_length(capsys):
    code, out, errtext = run(capsys, ["clt", "(s+s*)^8", "--m", "3"])
    assert code == 1 and out == ""
    assert "word length <= 6, got a word of 8 letters" in errtext


def test_convexity_chunks_leave_stdout_unchanged(capsys, monkeypatch):
    # 150 samples in chunks of 7: every chunk boundary cuts the 30-key cycle
    # of (m, p, q) somewhere else, and the draws stay in sample order
    argv = ["convexity", "--samples", "150", "--seed", "2"]
    code, whole, _ = run(capsys, argv)
    assert code == 0 and cli.CONVEXITY_CHUNK >= 150
    monkeypatch.setattr(cli, "CONVEXITY_CHUNK", 7)
    code, chunked, _ = run(capsys, argv)
    assert code == 0 and chunked == whole


def per_sample_convexity(args):
    """convexity's records from the per-sample loop: each pair's four (m, m) draws in turn,
    its (A, B, mu) kept until its chunk's (m, p, q) groups are evaluated."""
    ps, qs = parse_values(args.p), parse_values(args.q)
    mus = parse_values(args.mu)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    worst = {}

    def fold(key, margins):
        worst[key] = float(np.min(margins, initial=worst.get(key, np.inf)))

    for start in range(0, args.samples, cli.CONVEXITY_CHUNK):
        stacks = {}
        for k in range(start, min(start + cli.CONVEXITY_CHUNK, args.samples)):
            m = 2 + k % 15
            A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            stacks.setdefault((m, ps[k % len(ps)], qs[k % len(qs)]), []).append(
                (A, B, mus[(k // len(ps)) % len(mus)]))
        for (_, p, q), pairs in stacks.items():
            A, B, mu = map(np.array, zip(*pairs))
            bcl, asym, dual = hyperc.convexity_margins(A, B, p, mu, q)
            fold(("bcl", p, 1.0), bcl)
            for w in np.unique(mu).tolist():
                fold(("asym", p, w), asym[mu == w])
                fold(("dual", q, w), dual[mu == w])
    return [{"inequality": k[0], "exponent": k[1], "mu": k[2],
             "min_margin": v, "pass": bool(v >= -args.tol)} for k, v in sorted(worst.items())]


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@pytest.mark.parametrize("samples", [1, 17, 3001])
def test_convexity_chunk_draws_equal_a_per_sample_loop(monkeypatch, chunk, samples):
    # one draw per chunk, sliced at each pair's offset, gives the per-sample draws; the
    # repeated p and mu values share their groups.  The defaults' 30-key cycle of (m, p, q)
    # runs at the smaller sample counts, where a chunk of one costs a call per pair
    monkeypatch.setattr(cli, "CONVEXITY_CHUNK", chunk)
    argvs = [["convexity", "--p", "1.5,1.5,2", "--mu", "1,3,1", "--q", "2,5"]]
    for argv in argvs + [["convexity"]] * (samples < 1000):
        args = build_parser().parse_args(argv + ["--samples", str(samples), "--seed", "3"])
        assert cli.cmd_convexity(args) == per_sample_convexity(args)


@pytest.mark.parametrize("emit_as", ["json", "csv"])
def test_choi_blocks_leave_stdout_unchanged(capsys, monkeypatch, emit_as):
    # 51 x 31 records: one stack over the whole grid and one block, then chunks of one time
    # (below the 31 weights) and of whole times that cut the records' blocks, each with
    # blocks of 1 and 7 records
    argv = ["choi", "--t", "0:0.5:0.01", "--tol", "0", "--emit", emit_as]
    chunks, blocks = (1, 32, 100, cli.CHOI_CHUNK), (1, 7, cli.BLOCK)
    monkeypatch.setattr(cli, "CHOI_CHUNK", 10 ** 6)
    monkeypatch.setattr(cli, "BLOCK", 10 ** 6)
    code, whole, err = run(capsys, argv)
    assert code == 2 and err.count("FAIL") > 0 and whole.count("\n") > 1581
    for chunk in chunks:
        for block in blocks:
            monkeypatch.setattr(cli, "CHOI_CHUNK", chunk)
            monkeypatch.setattr(cli, "BLOCK", block)
            assert run(capsys, argv) == (code, whole, err), (chunk, block)


def test_choi_checks_its_inputs_before_any_record(monkeypatch):
    args = build_parser().parse_args(["choi", "--mu", "1e80"])
    with pytest.raises(ValueError, match="too large"):
        cli.cmd_choi(args)
    records = cli.cmd_choi(build_parser().parse_args(["choi"]))
    assert not isinstance(records, list) and next(records)["t"] == 0.0


def test_an_error_in_the_first_block_leaves_stdout_empty(capsys, monkeypatch):
    def records(args):
        yield {"p": args.p, "pass": True}
        raise ValueError("no second record")

    monkeypatch.setitem(COMMANDS, "necessary-time", records)
    assert run(capsys, ["necessary-time"]) == (1, "", "error: no second record\n")


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _traced_peak(argv) -> int:
    """The tracemalloc peak in bytes of main(argv), stdout discarded."""
    with contextlib.redirect_stdout(_Discard()):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("emit_as", ["json", "csv"])
def test_choi_memory_does_not_grow_with_the_record_count(emit_as):
    # 201 x 31 records and 801 x 31, each several CHOI_CHUNKs: a record list spanning the
    # grid grows the peak by several MiB
    small = ["choi", "--t", "0:2:0.01", "--emit", emit_as]
    large = ["choi", "--t", "0:8:0.01", "--emit", emit_as]
    _traced_peak(small)     # parser and lazy imports, once
    assert _traced_peak(large) - _traced_peak(small) <= 2 ** 20


def test_clt_memory_stays_within_its_stack_budget():
    # 50 samples fill a few stacks of 21 at m = 64, 400 samples 20 of them: every sample
    # in one stack peaked at 231 MB resident for 2000 samples
    argv = ["clt", "(s+s*)^6", "--q", "0.5", "--m", "64", "--samples"]
    _traced_peak(argv + ["50"])     # parser, lazy imports and the Wick classes, once
    for samples in ("50", "400"):
        assert _traced_peak(argv + [samples]) <= clt.STACK_BYTES + 2 ** 20


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [["--p", "1.5", "--mu", "1", "--q", "253"],
                                  ["--p", "2", "--mu", "8.18e76"]], ids=["q-253", "mu-8.18e76"])
def test_convexity_margins_stay_finite_at_the_edges(capsys, argv):
    # the power means once overflowed: x**q of norms near 10 gave a dual margin of -inf and
    # a false exit 2 at q = 253, and ||A + mu**2 B||**2 an asym margin of +inf that passed
    code, out, err = run(capsys, ["convexity", "--samples", "60", *argv])
    assert code == 0, err
    margins = [rec["min_margin"] for rec in json.loads(out)["records"]]
    assert np.all(np.isfinite(margins)) and min(margins) >= -1e-10


def test_convexity_fold_keeps_a_nan_margin(capsys, monkeypatch):
    # Python's min(inf, nan, 0.5) is 0.5: a NaN margin that is not first would pass
    def one_nan(A, B, p, mu, q):
        bcl, asym, dual = hyperc.convexity_margins(A, B, p, mu, q)
        asym[-1] = np.nan
        return bcl, asym, dual
    monkeypatch.setattr(cli, "convexity_margins", one_nan)
    code, _, err = run(capsys, ["convexity", "--samples", "60"])
    assert code == 2
    assert '"min_margin": NaN' in err


@pytest.mark.parametrize("mu", ["1", "3"])
def test_fock_moment_oracles_agree_relative_to_the_moment(capsys, mu):
    # (g+g*)**10 is 678 at q = 0.9, and the two oracles' rounding differs there by 4.3e-12:
    # an absolute 1e-12 failed 67 of these 400 points
    for q in (k / 100 for k in range(-100, 100)):
        code, out, err = run(capsys, ["fock-moment", "(g+g*)^10", f"--q={q!r}", "--mu", mu])
        assert code == 0, (q, err)
        rec = json.loads(out)["records"][0]
        assert rec["oracle_disagreement"] <= 1e-12 * max(1.0, abs(rec["value_re"]))


def test_fock_moment_bound_scales_with_the_pairing_terms(capsys, monkeypatch):
    # the terms of g*g*ggg*g*ggg*g reach 1e60 and cancel to 1e51 at --mu 1e30, where the
    # operator route is 2.5e-8 off: a bound relative to the value failed it
    code, out, err = run(capsys, ["fock-moment", "g*g*ggg*g*ggg*g", "--q=-0.999", "--mu", "1e30"])
    assert code == 0, err
    rec = json.loads(out)["records"][0]
    assert rec["value_re"] == 1.0000000254586613e51 and rec["oracle_disagreement"] > 1e43
    # (g+g*)**10 at q = 0.9 has terms of one sign, so the bound stays 1e-12 relative there
    real = cli.moment_operator
    monkeypatch.setattr(cli, "moment_operator", lambda *a: real(*a) * (1 + 1e-10))
    code, _, err = run(capsys, ["fock-moment", "(g+g*)^10", "--q", "0.9"])
    assert code == 2 and err.startswith("FAIL: ")


def test_necessary_time_flags_discrepancy(capsys):
    code, out, _ = run(capsys, ["necessary-time", "--p", "4", "--mu", "2"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["differs"] is True
    assert rec["ratio_above"] > 1.0 > rec["ratio_below"]


def test_necessary_time_crosses_up_to_the_weight_limit(capsys):
    # at mu = 1000 the witness still moves the ratio by about 2.5e-12; past the
    # limit both ratios round to 1.0, so a larger --mu is a usage error.  The witness
    # size is fixed, so the higher-order terms catch up as p' grows: at mu = 1,
    # ratio_above - 1 is 3.6e-8 at p' = 2900, the largest --p taken, and negative past 2944
    code, out, _ = run(capsys, ["necessary-time", "--p", "4,6,8,10,2900",
                                "--mu", "1,1.000000001,1000"])
    assert code == 0
    assert all(rec["ratio_above"] > 1.0 > rec["ratio_below"]
               for rec in json.loads(out)["records"])


def test_norm_commands_never_touch_the_4n_model(capsys, monkeypatch):
    # every command takes its checks and norms in the 2**n irrep, with the vacuum weights and
    # degrees in closed form: on fresh models, no call of the benchmark's campaign, no norm
    # command at n = 6 and no violation search reaches the 4**n layout, whose only door in
    # qhyper is get_density
    def forbidden(*args, **kwargs):
        raise AssertionError("4**n layout reached")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qhyper" and getattr(module, "get_density", None) is get_density:
            monkeypatch.setattr(module, "get_density", forbidden)
    for name in ("_letter_entries", "_density_entries"):
        monkeypatch.setattr(BabyFock, name, forbidden)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    worker = importlib.import_module("worker")
    campaign = worker.Campaign(7)
    campaign.before_round()         # clears the model cache: every call builds its models
    verdicts = campaign.verdicts([op() for _, op in campaign.ops])
    assert all(verdicts), [label for (label, _), ok in zip(campaign.ops, verdicts) if not ok]
    for argv in (["relations", "--n", "6"], ["density", "--n", "6", "--mu", "1,1.2,1.5,2,2.5,3"],
                 ["lpnorm", "--n", "6", "--mu", "1,1.2,1.5,2,2.5,3"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["pass"] is True
    for mu, sign_seed in worker.Search.MODELS:
        params = ModelParams.make(3, mu, sign_seed=sign_seed)
        t = float(-0.5 * np.log(hyperc.sufficient_time(1.5, params.mu)))
        ratio = hyperc.violation_search(BabyFock(params), t, 1.5, restarts=20, seed=7).ratio
        assert 1.0 - 1e-12 <= ratio <= 1.0 + 1e-9


def test_lpnorm_n6_meets_closed_form(capsys):
    code, out, _ = run(capsys, ["lpnorm", "--n", "6", "--mu", "1,1.2,1.5,2,2.5,3"])
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == 24
    assert all(r["closed_form_resid"] <= 1e-10 for r in records)


def test_lpnorm_checks_closed_form_beyond_n1(capsys, monkeypatch):
    # a norm off by one part in a million fails the closed form at n = 3
    real = cli.schatten_norm
    monkeypatch.setattr(cli, "schatten_norm", lambda a, p: (1.0 + 1e-6) * real(a, p))
    code, out, err = run(capsys, ["lpnorm", "--n", "3"])
    assert code == 2
    assert json.loads(out)["pass"] is False
    assert "FAIL" in err


def test_hyperc_search_reports_only(capsys):
    code, out, _ = run(capsys, ["hyperc-search", "--n", "1", "--mu", "2",
                                "--p", "4", "--t", "0.2", "--direction", "dual",
                                "--restarts", "20", "--seed", "1"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["violation"] in (True, False)


@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_non_finite_mu_exit_code(capsys, mu):
    code, out, errtext = run(capsys, ["density", "--n", "1", "--mu", mu])
    assert code == 1
    assert out == ""
    assert "finite" in errtext


@pytest.mark.parametrize("m", ["0", "5,0", "-1"])
def test_clt_rejects_m_below_one(capsys, m):
    code, out, errtext = run(capsys, ["clt", "(s+s*)^4", "--m", m])
    assert code == 1
    assert out == ""
    assert "--m: takes integers in [1, 64]" in errtext


def test_clt_rejects_packed_key_overflow(capsys):
    # letter index 9 at m = 64 gives letter codes up to 2*9*64 - 1 = 1151
    code, out, errtext = run(capsys, ["clt", "(g9+g9*)^4", "--mu", "1,1,1,1,1,1,1,1,1",
                                      "--m", "64", "--samples", "2"])
    assert code == 1
    assert out == ""
    assert "2*n*m" in errtext


# the flags each command reads, besides --emit, --seed and --sign-seed, and their
# defaults as typed (None: the command runs without the flag)
MODEL = {"--n": "1", "--mu": "1", "--sign-file": None}
TAKES = {
    "relations": {**MODEL, "--tol": "1e-12"},
    "density": {**MODEL, "--tol": "1e-9"},
    "lpnorm": {**MODEL, "--p": "2,3,4,6"},
    "choi": {"--t": "0:5:0.01", "--mu": "1:4:0.1", "--tol": "1e-12"},
    "convexity": {"--p": "1.1:2:0.1", "--mu": "1,1.5,2,3", "--q": "2,3,4",
                  "--samples": "1000", "--tol": "1e-10"},
    "hyperc-verify": {**MODEL, "--p": "1.25,1.5,1.75", "--t": None, "--restarts": "1000",
                      "--tol": "1e-9"},
    "hyperc-search": {**MODEL, "--p": "1.5", "--t": "0.5", "--restarts": "200",
                      "--direction": "primal"},
    "necessary-time": {"--p": "4,6", "--mu": "1,1.3,2"},
    "perturb": {"--p": "3,4,6", "--mu": "1.2,1.5,2", "--tol": "1e-4"},
    "fock-moment": {"--q": "0", "--mu": "1"},
    "clt": {"--q": "0", "--mu": "1", "--m": "5,10,20,40", "--samples": "100", "--tol": None},
}
COMMON = {"--emit": "json", "--seed": "0", "--sign-seed": "0"}
FLAG_VALUE = {"--direction": "dual", "--sign-file": "signs.json", "--n": "2"}
ALL_FLAGS = sorted({f for flags in TAKES.values() for f in flags})
WORD = {"fock-moment": ["g*g"], "clt": ["g*g"]}


def _argv(command, flag, value=None):
    return [command] + WORD.get(command, []) + [flag, value or FLAG_VALUE.get(flag, "1")]


BOUNDARY_CASES = [
    (["clt", "(s+s*)^2", "--samples", "0"], "--samples: takes integers in [1, inf)"),
    (["convexity", "--samples", "0"], "--samples: takes integers in [1, inf)"),
    (["hyperc-verify", "--restarts", "0"], "--restarts: takes integers in [1, inf)"),
    (["hyperc-search", "--restarts", "0"], "--restarts: takes integers in [1, inf)"),
    (["choi", "--t", "5:1:1"], "at least one value"),
    (["lpnorm", "--p", "3:2:1"], "at least one value"),
    (["hyperc-verify", "--p", "2:1:1"], "at least one value"),
    (["necessary-time", "--p", "6:4:1"], "at least one value"),
    (["convexity", "--p", "2:1:1"], "at least one value"),
    (["lpnorm", "--p", "nan"], "finite"),
    (["choi", "--t", "0:inf:1"], "finite"),
    # a grid of infinitely many values: its length int(inf) overflows
    (["lpnorm", "--p", "1:1e300:1e-300"], "--p: cannot convert float infinity to integer"),
    # a grid's ends and count are checked before it is built: once, 0:1e9:1 was built in
    # full (about 40 GB) before its first value was rejected
    (["lpnorm", "--p", "0:1e9:1"], "--p: takes values in [1, inf), got 0.0"),
    (["lpnorm", "--p", "1:1e9:1"], "--p: grid holds 1000000000 values, more than 100000"),
    (["necessary-time", "--p", "4:1e9:1"], "--p: takes even integers in [4, 2900], got 5.0"),
    (["clt", "(s+s*)^2", "--m", "5.7"], "integers"),
    (["hyperc-search", "--p", "0"], "--p: takes values in [1, inf)"),
    (["hyperc-search", "--t", "-3"], "--t: takes values in [0, 1e+300]"),
    (["fock-moment", "(g+g*)^0"], "exponent must be at least 1"),
    (["fock-moment", "g0"], "index must be at least 1"),
    (["fock-moment", "h"], "cannot parse word"),
    (["clt", "g^0", "--m", "5"], "exponent must be at least 1"),
    (["choi", "--mu", "0.5"], "--mu: takes values in [1, inf)"),
    (["choi", "--t=-1"], "--t: takes values in [0, 1e+300]"),
    (["convexity", "--mu", "0.5"], "--mu: takes values in [1, inf)"),
    # mu**4 overflows: the weight is named, not an OverflowError's errno text
    (["choi", "--mu", "1e80"], "too large"),
    (["convexity", "--mu", "1e300"], "too large"),
    (["convexity", "--q", "1.5"], "--q: takes values in [2, 1e+15]"),
    (["convexity", "--p", "1"], "--p: takes values in (1, 2]"),
    (["convexity", "--p", "2.5"], "--p: takes values in (1, 2]"),
    # checked before any density power D**(1/p) is built
    (["lpnorm", "--p", "0"], "--p: takes values in [1, inf)"),
    (["lpnorm", "--p", "0.5"], "--p: takes values in [1, inf)"),
    (["perturb", "--p", "0"], "--p: takes values in (2, 2800]"),
    (["perturb", "--p", "2"], "--p: takes values in (2, 2800]"),
    # past this c_coeff overflows at the largest weights; --p 1e6 once overflowed float ** p
    (["perturb", "--p", "2801"], "--p: takes values in (2, 2800]"),
    (["perturb", "--p", "1e6"], "--p: takes values in (2, 2800]"),
    (["perturb", "--mu", "1.000000001"], "--mu: takes values in [1.00000001, inf)"),
    (["hyperc-verify", "--t", "0.1,0.2"], "--t: takes one value in [0, 1e+300]"),
    (["fock-moment", "(g+g*)^2", "--q", "0.1,0.2"], "--q: takes one value in [-1, 1)"),
    (["clt", "(s+s*)^2", "--q", "0.1,0.2"], "--q: takes one value in [-1, 1)"),
    (["fock-moment", "g1*g1g2*g2g3*g3", "--mu", "1,2"], "--mu takes one value or 3"),
    (["clt", "g1*g2*g2g1", "--mu", "1,2,3"], "--mu takes one value or 2"),
    # nan fails every comparison, a negative tolerance fails every record and
    # inf passes every one: none of them is a tolerance
    (["relations", "--n", "1", "--tol", "nan"], "--tol: takes values in [0, inf)"),
    (["density", "--tol=-1"], "--tol: takes values in [0, inf)"),
    (["choi", "--tol", "inf"], "--tol: takes values in [0, inf)"),
    (["convexity", "--tol", "nan"], "--tol: takes values in [0, inf)"),
    (["hyperc-verify", "--tol=-1e-3"], "--tol: takes values in [0, inf)"),
    (["perturb", "--tol", "inf"], "--tol: takes values in [0, inf)"),
    (["clt", "s*s", "--m", "5", "--samples", "2", "--tol", "nan"],
     "--tol: takes values in [0, inf)"),
    (["relations", "--sign-file="], "No such file"),
    (["necessary-time", "--mu", "1001"], "--mu: takes values in [1, 1000]"),
    (["necessary-time", "--mu", "1e20"], "--mu: takes values in [1, 1000]"),
    # p' = 3000 gave a false exit 2; at 1e17 the exact threshold rounded to 0
    (["necessary-time", "--p", "2902"], "--p: takes even integers in [4, 2900]"),
    (["necessary-time", "--p", "3000"], "--p: takes even integers in [4, 2900]"),
    (["necessary-time", "--p", "1e17"], "--p: takes even integers in [4, 2900]"),
    # the model still rejects a weight whose density underflows
    (["perturb", "--mu", "1e77"], "too large"),
]
# an empty value is no value, not the default
BOUNDARY_CASES += [([command, *WORD.get(command, []), flag + "="], "at least one value")
                   for command, flags in TAKES.items()
                   for flag in ("--p", "--t", "--mu", "--q", "--m") if flag in flags]


@pytest.mark.parametrize("argv,message", BOUNDARY_CASES,
                         ids=[" ".join(argv) for argv, _ in BOUNDARY_CASES])
def test_boundary_inputs_exit_one(capsys, argv, message):
    # argparse rejects a bad count itself, with SystemExit(1)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("text", ['{"n": 2}', '{"pairs": [[1, 2, 1]]}',
                                  '{"n": 2, "pairs": [[1, 2]]}', '{"n": 2, "pairs": [7]}',
                                  '{"n": 2, "pairs": [["a", 2, 1]]}', '[2]',
                                  '{"n": 2, "pairs": [[1, 2, 1], [2, 1, -1]]}',
                                  '{"n": 2, "pairs": [[1.9, 2.2, 1]]}'])
def test_malformed_sign_file_exit_one(tmp_path, capsys, text):
    path = tmp_path / "signs.json"
    path.write_text(text, encoding="utf-8")
    code, out, errtext = run(capsys, ["relations", "--n", "2", "--sign-file", str(path)])
    assert code == 1
    assert out == ""
    assert errtext.startswith("error:")


@pytest.mark.parametrize("argv", [["--n", "5"], ["--n", "6", "--restarts", "20"]],
                         ids=["n5", "n6"])
def test_hyperc_search_beyond_n4(capsys, argv):
    code, out, _ = run(capsys, ["hyperc-search"] + argv)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["max_ratio"] >= 1.0 - 1e-12


def test_word_weights_broadcast_one_value(capsys):
    # one --mu value stands for every letter index, as for the model commands
    outs = []
    for mu in ("1.5", "1.5,1.5"):
        for argv in (["fock-moment", "g1*g2*g2g1"],
                     ["clt", "g1*g2*g2g1", "--m", "3", "--samples", "2"]):
            code, out, _ = run(capsys, argv + ["--mu", mu])
            assert code == 0
            outs.append(json.loads(out)["records"])
    assert outs[:2] == outs[2:]
    assert outs[0][0]["mu"] == "1.5,1.5"


@pytest.mark.parametrize("command", TAKES)
def test_defaults_spelled_out_change_nothing(capsys, command):
    # config echoes each default as parsed, so both runs print the same bytes
    spelled = [f"{flag}={value}" for flag, value in {**TAKES[command], **COMMON}.items()
               if value is not None]
    code, out, _ = run(capsys, [command] + WORD.get(command, []))
    assert code == 0
    assert run(capsys, [command] + WORD.get(command, []) + spelled) == (code, out, "")
    unset = {flag[2:].replace("-", "_") for flag, value in TAKES[command].items() if value is None}
    assert {k for k, v in json.loads(out)["config"].items() if v is None} == unset


def test_parser_is_built_once_and_main_calls_the_commands_table(capsys, monkeypatch):
    assert build_parser() is build_parser()
    # a tracer wraps a command by rebinding its COMMANDS entry after the parser exists
    monkeypatch.setitem(COMMANDS, "necessary-time", lambda args: [{"p": args.p, "pass": True}])
    code, out, _ = run(capsys, ["necessary-time", "--p", "4"])
    assert code == 0
    assert json.loads(out)["records"] == [{"p": "4", "pass": True}]


def test_commands_take_their_flags():
    assert set(TAKES) == set(COMMANDS)
    parser = build_parser()
    for command, flags in TAKES.items():
        for flag in (*flags, *COMMON):
            value = "csv" if flag == "--emit" else flags.get(flag)    # a value in the box
            args = parser.parse_args(_argv(command, flag, value))
            assert getattr(args, flag[2:].replace("-", "_")) is not None


REJECTED = [(c, f) for c in TAKES for f in ALL_FLAGS if f not in TAKES[c]]


@pytest.mark.parametrize("command,flag", REJECTED, ids=[" ".join(x) for x in REJECTED])
def test_flag_the_command_does_not_take_exits_one(capsys, command, flag):
    with pytest.raises(SystemExit) as err:
        main(_argv(command, flag))
    captured = capsys.readouterr()
    assert err.value.code == 1
    assert captured.out == ""
    assert "error:" in captured.err and flag in captured.err
