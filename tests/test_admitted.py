"""Every command at every corner of the boxes ``cli._TAKES`` declares.

Each numeric flag is swept alone, the command's other flags at their defaults (counts
and clt's --m at small values): at each end of its box, with an open end replaced by the
nearest value inside it and an infinite one by the largest float, and at a few
log-spaced interior points.  A weight's upper end is the models' own: the largest
weight that ``ModelParams`` (or ``check_weights``, for the commands that build no model)
admits, and at every n up to MAX_N the model commands also run at the largest equal
weights the model admits at that n.  Every pair of a command's numeric flags, other than
the seeds and the counts, also runs at each pair of the two flags' ends.  Every run must
exit 0 with ``"pass": true``, except that with a --tol end a run may also exit 2, and so may
hyperc-verify with a --t below the proof-level time.  One step outside each finite end, and
a non-integer inside an integer box, exit 1 and name the flag.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qhyper import cli
from qhyper.signs import MAX_N, ModelParams, SignTable, check_weights

WORD = {"fock-moment": ["(g+g*)^4"], "clt": ["(s+s*)^2"]}
# a count is swept only at its low end and at small values, never at the scale of a huge
# count; these stand in for the counts' defaults while the other flags are swept
SMALL = {"--samples": "2", "--restarts": "2", "--m": "5"}
MODEL_COMMANDS = {c for c, flags in cli._TAKES.items() if "--n" in flags} | {"perturb"}


def _largest(admits) -> float:
    """The largest float >= 1 that admits() accepts, by bisection on the float's bits."""
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, np.finfo(float).max))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if admits(float(np.int64(mid).view(np.float64))):
            lo = mid
        else:
            hi = mid
    return float(np.int64(lo).view(np.float64))


def _admitted(admits) -> bool:
    try:
        admits()
    except ValueError:
        return False
    return True


def largest_weight(command: str, n: int = 1) -> float:
    """The largest weight the command's own library boundary admits at n equal weights."""
    if command in MODEL_COMMANDS:
        signs = SignTable.all_anticommuting(n)
        return _largest(lambda mu: _admitted(lambda: ModelParams.make(n, mu, signs)))
    return _largest(lambda mu: _admitted(lambda: check_weights((mu,))))


def _declared(command: str, flag: str) -> tuple:
    """The flag's (default, box) in the command."""
    return cli._TAKES[command].get(flag) or cli._COMMON[flag]


def _step(end: float, toward: float, step: int) -> float:
    """The next admissible value from end toward toward: step apart, or the next float."""
    if step:
        return end + (step if toward > end else -step)
    return float(np.nextafter(end, toward))


def _is_count(box) -> bool:
    return bool(box.step) and box.hi == math.inf


def ends(command: str, flag: str, n: int = 1) -> tuple:
    """The flag's two ends: an open end replaced by the nearest value inside it, an infinite
    one by the largest float or, for a weight, by the largest the command admits at n."""
    box = _declared(command, flag)[1]
    top = (largest_weight(command, n) if flag == "--mu" else np.finfo(float).max) \
        if box.hi == math.inf else box.hi
    lo = _step(box.lo, top, box.step) if box.ends[0] == "(" else box.lo
    hi = _step(top, lo, box.step) if box.ends[1] == ")" and box.hi < math.inf else top
    return lo, hi


def corners(command: str, flag: str) -> list:
    """The values of the sweep: the ends, the inside of open ends, and interior points."""
    default, box = _declared(command, flag)
    step = box.step
    if _is_count(box):
        return [box.lo, box.lo + 1, box.lo + 2]
    lo, hi = ends(command, flag)
    if flag == "--tol":     # a tolerance tighter than the default may fail by design
        a = min(cli.parse_values(default or "1e-12"))
    else:
        a = lo if lo > 0 else (1 if step else np.finfo(float).tiny)
    inner = [lo + k * (hi - lo) / 4 if lo < 0 else
             math.exp(math.log(a) + k * (math.log(hi) - math.log(a)) / 4) for k in (1, 2, 3)]
    if step:
        inner = [step * round(v / step) for v in inner]
        lo, hi = int(lo), int(hi)
    return sorted({lo, hi, *inner})


def _text(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))


def _base(command: str) -> list:
    takes = cli._TAKES[command]
    return [command, *WORD.get(command, []),
            *(f"{flag}={value}" for flag, value in SMALL.items() if flag in takes)]


def run(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NUMERIC = [(c, f) for c, flags in cli._TAKES.items()
           for f, (_, box) in {**flags, **cli._COMMON}.items() if box is not None]
CORNERS = [(c, f, v) for c, f in NUMERIC for v in corners(c, f)]
HEAVIEST = [(c, n) for c in sorted(MODEL_COMMANDS - {"perturb"}) for n in range(1, MAX_N + 1)]


def check_passes(capsys, command: str, values: dict):
    """The command, run with the flags set to the values, exits 0 with "pass": true, or
    also 2 with a --tol set or hyperc-verify's --t set below the proof-level time."""
    code, out, err = run(capsys, _base(command) + [f"{f}={_text(v)}" for f, v in values.items()])
    # hyperc-verify asserts contraction, which may fail below the proof-level time
    verify_t = command == "hyperc-verify" and "--t" in values
    assert code in ((0, 2) if "--tol" in values or verify_t else (0,)), err
    doc = json.loads(out)
    assert doc["pass"] is (code == 0)
    # at and past the proof-level time every record passes, unless a --tol tighter than
    # the default fails a ratio rounded above 1 (1 + 2.2e-16 at --t=1e+300 --tol=0.0)
    if verify_t and "--tol" not in values:
        assert all(rec["pass"] for rec in doc["records"]
                   if rec["exp_minus_2t"] <= rec["threshold"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,flag,value", CORNERS,
                         ids=[f"{c} {f}={_text(v)}" for c, f, v in CORNERS])
def test_every_corner_passes(capsys, command, flag, value):
    check_passes(capsys, command, {flag: value})


# the seeds key generators and bound nothing, and counts stay small: each other pair of a
# command's numeric flags at each pair of their ends, a weight's top end the largest the
# model admits at the paired --n (which _TAKES lists before --mu)
PAIRED = {c: [f for f, (_, box) in flags.items() if box is not None and not _is_count(box)]
          for c, flags in cli._TAKES.items()}
PAIRS = [(c, {f: v, g: w}) for c, flags in PAIRED.items()
         for f, g in itertools.combinations(flags, 2)
         for v in ends(c, f) for w in ends(c, g, v if f == "--n" else 1)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,values", PAIRS,
                         ids=[" ".join([c, *(f"{f}={_text(v)}" for f, v in values.items())])
                              for c, values in PAIRS])
def test_every_pair_of_ends_passes(capsys, command, values):
    check_passes(capsys, command, values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,n", HEAVIEST, ids=[f"{c} --n={n}" for c, n in HEAVIEST])
def test_every_n_passes_at_its_largest_weight(capsys, command, n):
    mu = largest_weight(command, n)
    code, out, err = run(capsys, _base(command) + [f"--n={n}", f"--mu={mu!r}"])
    assert code == 0, err
    assert json.loads(out)["pass"] is True
    # one step past it the model rejects the weight
    code, out, err = run(capsys, _base(command) + [f"--n={n}",
                                                   f"--mu={float(np.nextafter(mu, np.inf))!r}"])
    assert (code, out) == (1, "") and "too large" in err


def outside(command: str, flag: str) -> list:
    """One step outside each finite end, and a non-integer inside an integer box."""
    box = _declared(command, flag)[1]
    step = box.step
    ends = [(box.lo, -math.inf, box.ends[0] == "("), (box.hi, math.inf, box.ends[1] == ")")]
    values = [end if is_open else _step(end, away, step)
              for end, away, is_open in ends if math.isfinite(end)]
    return values + ([box.lo + step / 2] if step else [])


OUTSIDE = [(c, f, v) for c, f in NUMERIC for v in outside(c, f)]


@pytest.mark.parametrize("command,flag,value", OUTSIDE,
                         ids=[f"{c} {f}={_text(v)}" for c, f, v in OUTSIDE])
def test_one_step_outside_exits_one(capsys, command, flag, value):
    code, out, err = run(capsys, _base(command) + [f"{flag}={_text(value)}"])
    assert (code, out) == (1, "")
    assert f"argument {flag}: takes {_declared(command, flag)[1]}" in err
