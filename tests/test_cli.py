"""CLI contract: determinism, exit codes, emission formats."""

import json

import numpy as np
import pytest

from qhyper.babyfock import get_model
from qhyper.cli import _config_echo, _jsonable, build_parser, emit, main, parse_values
from qhyper.semigroup import choi_identity_residual, choi_matrix
from qhyper.signs import ModelParams, SignTable
from qhyper.state import get_density, haagerup_norm


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
           "records": _jsonable(records), "pass": all(r["pass"] for r in records)}
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == json.dumps(doc, indent=2, sort_keys=False, default=repr) + "\n"


class _Opaque:
    def __repr__(self):
        return "Opaque(3)"


def test_json_emission_matches_jsonable_dump():
    args = build_parser().parse_args(["choi"])
    records = [{"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-7),
                "flag": np.bool_(True), "off": np.bool_(False), "nan": float("nan"),
                "np_nan": np.float64("nan"), "inf": np.float64("inf"),
                "minus_inf": float("-inf"), "f32_inf": np.float32("-inf"),
                "obj": _Opaque(), "nested": (np.int64(2), [np.float32(2.5)]),
                "plain": 1.25}]
    for passed in (np.bool_(True), False):
        want = json.dumps({"config": _config_echo(args), "records": _jsonable(records),
                           "pass": bool(passed)}, indent=2, default=repr) + "\n"
        assert emit(args, records, passed) == want


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_bad_value_exit_code(capsys):
    code, _, errtext = run(capsys, ["perturb", "--mu", "1.0"])
    assert code == 1
    assert "error" in errtext


def test_assertion_failure_exit_code(capsys):
    # an impossible tolerance forces the pass flags off
    code, out, errtext = run(capsys, ["relations", "--n", "1", "--mu", "1",
                                      "--tol", "-1"])
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
    # the commands apply letters to powers of D; the oracle multiplies dense generators
    mu = (1.2, 1.7, 2.5)
    argv = ["--n", "3", "--mu", ",".join(map(str, mu)), "--sign-seed", "4"]
    code, out, _ = run(capsys, ["density"] + argv)
    assert code == 0
    resid = {r["check"]: r["residual"] for r in json.loads(out)["records"]}
    code, out, _ = run(capsys, ["lpnorm"] + argv)
    assert code == 0
    norms = json.loads(out)["records"]
    model = get_model(ModelParams.make(3, mu, sign_seed=4))
    D = get_density(model).density
    for i in (1, 2, 3):
        g = model.apply_gamma(i, model.identity())
        tr = np.trace(D @ g.conj().T @ g).real
        assert abs(resid[f"trace_gstar_g_{i}"] - abs(tr - mu[i - 1] ** -2)) <= 1e-12
        l2 = haagerup_norm(model, g, 2)
        assert abs(resid[f"l2_norm_gamma_{i}"] - abs(l2 - 1 / mu[i - 1])) <= 1e-12
        recs = [r for r in norms if r["index"] == i]
        assert len(recs) == 4
        for rec in recs:
            assert abs(rec["norm"] - haagerup_norm(model, g, rec["p"])) <= 1e-12


def test_necessary_time_flags_discrepancy(capsys):
    code, out, _ = run(capsys, ["necessary-time", "--p", "4", "--mu", "2"])
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert rec["differs"] is True
    assert rec["ratio_above"] > 1.0 > rec["ratio_below"]


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
    assert "1 <= m" in errtext


def test_clt_rejects_packed_key_overflow(capsys):
    # letter index 9 at m = 64 gives letter codes up to 2*9*64 - 1 = 1151
    code, out, errtext = run(capsys, ["clt", "(g9+g9*)^4", "--mu", "1,1,1,1,1,1,1,1,1",
                                      "--m", "64", "--samples", "2"])
    assert code == 1
    assert out == ""
    assert "2*n*m" in errtext


BOUNDARY_CASES = [
    (["clt", "(s+s*)^2", "--samples", "0"], "at least 1"),
    (["convexity", "--samples", "0"], "at least 1"),
    (["hyperc-verify", "--restarts", "0"], "at least 1"),
    (["hyperc-search", "--restarts", "0"], "at least 1"),
    (["choi", "--t", "5:1:1"], "at least one value"),
    (["lpnorm", "--p", "3:2:1"], "at least one value"),
    (["hyperc-verify", "--p", "2:1:1"], "at least one value"),
    (["necessary-time", "--p", "6:4:1"], "at least one value"),
    (["convexity", "--p", "2:1:1"], "at least one value"),
    (["lpnorm", "--p", "nan"], "finite"),
    (["choi", "--t", "0:inf:1"], "finite"),
    (["clt", "(s+s*)^2", "--m", "5.7"], "integers"),
    (["hyperc-search", "--p", "0"], "p must be"),
    (["hyperc-search", "--t", "-3"], "t must be"),
    (["fock-moment", "(g+g*)^0"], "exponent must be at least 1"),
    (["fock-moment", "g0"], "index must be at least 1"),
    (["clt", "g^0", "--m", "5"], "exponent must be at least 1"),
    (["choi", "--mu", "0.5"], "need t >= 0 and mu >= 1"),
    (["choi", "--t=-1"], "need t >= 0 and mu >= 1"),
    (["convexity", "--mu", "0.5"], "mu must be >= 1"),
    (["convexity", "--q", "1.5"], "need q >= 2"),
    (["convexity", "--p", "1"], "need 1 < p <= 2"),
    (["convexity", "--p", "2.5"], "need 1 < p <= 2"),
]


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
