"""Property tests: sign-table serialization, sub-models, value grids, monomial expansion,
phase invariance of the contraction ratios, word parsing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gns_oracle import contraction_ratio, dual_contraction_ratio, expand, reconstruct
from qhyper.babyfock import GEN, STAR, BabyFock
from qhyper.cli import parse_values
from qhyper.hyperc import RatioEvaluator
from qhyper.qfock import parse_word
from qhyper.signs import ModelParams, SignTable


@st.composite
def sign_tables(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(pairs), max_size=len(pairs)))
    return SignTable.from_dict(dict(zip(pairs, signs)), n)


@st.composite
def model_params(draw, max_n=6):
    table = draw(sign_tables(max_n))
    mu = draw(st.lists(st.floats(1.0, 3.0), min_size=table.n, max_size=table.n))
    return ModelParams(n=table.n, mu=tuple(mu), signs=table)


@given(sign_tables())
def test_sign_table_json_round_trip(table):
    again = SignTable.from_json(table.to_json())
    assert again == table
    assert np.array_equal(again.matrix(), table.matrix())


@given(model_params(), st.data())
def test_sub_model_is_top_left_block(params, data):
    k = data.draw(st.integers(1, params.n))
    sub = params.sub(k)
    assert np.array_equal(sub.signs.matrix(), params.signs.matrix()[:k, :k])
    assert sub.mu == params.mu[:k]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_parse_values_comma_list(values):
    assert parse_values(",".join(repr(v) for v in values)) == values


@given(st.integers(-400, 400), st.integers(1, 40), st.integers(1, 60))
def test_parse_values_grid_count(start4, step4, count):
    # quarters are exact in binary, so the grid has exactly ``count`` points
    start, step = start4 / 4, step4 / 4
    stop = start + (count - 1) * step
    grid = parse_values(f"{start!r}:{stop!r}:{step!r}")
    assert grid == [start + k * step for k in range(count)]


@settings(max_examples=40, deadline=None)
@given(model_params(max_n=3), st.integers(0, 2 ** 32 - 1))
def test_expand_reconstruct_round_trip(params, seed):
    model = BabyFock(params)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
    X = reconstruct(model, c)
    assert np.max(np.abs(expand(model, X) - c)) <= 1e-12 * np.max(np.abs(c))
    assert np.max(np.abs(reconstruct(model, expand(model, X)) - X)) <= 1e-12 * np.max(np.abs(X))


@settings(max_examples=40, deadline=None)
@given(model_params(max_n=3), st.sampled_from(["primal", "dual"]), st.floats(0.0, 1.5),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_ratios_are_phase_invariant(params, direction, t, p_frac, seed):
    """g_i -> e^(i theta_i) g_i is an automorphism that fixes the vacuum state, so
    c_w -> e^(i q_w . theta) c_w, with q_w counting g minus g* per index, leaves every
    contraction ratio as it is."""
    model = BabyFock(params)
    rng = np.random.default_rng(seed)
    p = 1.1 + 0.9 * p_frac if direction == "primal" else 2.0 + 4.0 * p_frac
    c = rng.standard_normal((3, model.dim)) + 1j * rng.standard_normal((3, model.dim))
    letters = (np.arange(model.dim)[:, None] >> 2 * np.arange(model.n)) & 3
    charge = (letters == GEN).astype(float) - (letters == STAR)
    rotated = c * np.exp(1j * charge @ rng.uniform(-np.pi, np.pi, model.n))
    ev = RatioEvaluator(model, t, p, direction)
    assert np.max(np.abs(ev.ratios(rotated) / ev.ratios(c) - 1.0)) <= 1e-12
    if model.n <= 2:
        oracle = contraction_ratio if direction == "primal" else dual_contraction_ratio
        for x, y in zip(c, rotated):
            before = oracle(model, reconstruct(model, x), t, p)
            assert abs(oracle(model, reconstruct(model, y), t, p) / before - 1.0) <= 1e-12


SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def word_factors(draw):
    """(text, letters) of one factor: g, g*, gK, gK*, (g+g*) or (gK+gK*), maybe ^k."""
    kind = draw(st.sampled_from(["g", "g*", "x"]))
    idx = draw(st.integers(1, 12))
    name = draw(st.sampled_from("gs"))
    num = "" if idx == 1 and draw(st.booleans()) else str(idx)
    if kind == "x":
        text = f"({draw(SPACE)}{name}{num}{draw(SPACE)}+{draw(SPACE)}{name}{num}*{draw(SPACE)})"
    else:
        text = name + num + ("*" if kind == "g*" else "")
    power = draw(st.integers(1, 4))
    if power > 1 or draw(st.booleans()):
        text += f"{draw(SPACE)}^{power}"
    return text, [(kind, idx)] * power


@given(st.lists(st.tuples(SPACE, word_factors()), min_size=1, max_size=8), SPACE)
def test_parse_word_matches_reference_expansion(factors, tail):
    # ^k repeats the last factor k times in total; whitespace is ignored
    text = "".join(space + factor for space, (factor, _) in factors) + tail
    assert parse_word(text) == [letter for _, (_, letters) in factors for letter in letters]
