"""q-Fock oracle: inner products, moments, dual-oracle agreement."""

import itertools

import numpy as np
import pytest

from paper_reference import gram_matrix, positivity_check, q_inner
from qhyper.qfock import (QParams, _crossing_pairs, _pair_weights, _pairings, annihilate_apply,
                          create_apply, letter_parts, moment, moment_operator, moment_pairings,
                          parse_word)
from sparse_clt import word_adjoint


def test_gram_small_cases():
    assert np.allclose(gram_matrix([(1, 2), (2, 1)], 0.5), [[1, 0.5], [0.5, 1]])
    assert np.allclose(gram_matrix([(1, 1)], 0.5), [[1.5]])   # 1 + q
    assert np.allclose(gram_matrix([(1, 2, 3)], 0.9), [[1.0]])
    with pytest.raises(ValueError):
        gram_matrix([(1,), (1, 2)], 0.5)


def test_create_annihilate_examples():
    qp = QParams(q=0.5, n=1, mu=(1.0,))
    vac = {(): 1.0}
    assert not annihilate_apply(1, vac, qp)
    e1 = create_apply(1, vac, qp)
    assert e1 == {(1,): 1.0}
    e11 = create_apply(1, e1, qp)
    down = annihilate_apply(1, e11, qp)
    assert abs(down[(1,)] - 1.5) < 1e-15   # weights q^0 + q^1


def test_q_inner_and_positivity():
    rng = np.random.default_rng(0)
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        v = {}
        for _ in range(10):
            lvl = int(rng.integers(0, 4))
            w = tuple(int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(lvl))
            v[w] = v.get(w, 0.0) + complex(*rng.standard_normal(2))
        sq = q_inner(v, v, q)
        assert sq.real >= -1e-12 and abs(sq.imag) < 1e-12
    assert q_inner({(): 1.0}, {(): 1.0}, 0.3) == 1.0


def test_adjointness_create_annihilate():
    rng = np.random.default_rng(1)
    qp_template = dict(n=2, mu=(1.0, 1.0))
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        qp = QParams(q=q, **qp_template)

        def rand_vec():
            v = {}
            for _ in range(12):
                lvl = int(rng.integers(0, 4))
                w = tuple(int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
                          for _ in range(lvl))
                v[w] = v.get(w, 0.0) + complex(*rng.standard_normal(2))
            return v

        for lab in (1, -2):
            x, y = rand_vec(), rand_vec()
            lhs = q_inner(create_apply(lab, x, qp), y, q)
            rhs = q_inner(x, annihilate_apply(lab, y, qp), q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_moment_pair_values():
    qp = QParams(q=0.4, n=1, mu=(1.3,))
    assert abs(moment("g*g", qp) - 1.3 ** -2) < 1e-14
    assert abs(moment("gg*", qp) - 1.3 ** 2) < 1e-14
    assert abs(moment("g", qp)) < 1e-15
    assert abs(moment("ggg", qp)) < 1e-15
    assert abs(moment("gg", qp)) < 1e-15     # circular: no g-g pairing


@pytest.mark.parametrize("q", [-0.5, 0.0, 0.5, 0.9])
def test_normalized_fourth_moment(q):
    qp = QParams(q=q, n=1, mu=(1.0,))
    assert abs(moment("(g+g*)^2", qp) - 1.0) < 1e-13
    assert abs(moment("(g+g*)^4", qp) - (2.0 + q)) < 1e-12


def test_car_limit_via_pairings():
    qp = QParams(q=-1.0, n=1, mu=(1.0,))
    assert abs(moment("(g+g*)^2", qp) - 1.0) < 1e-14
    assert abs(moment("(g+g*)^4", qp) - 1.0) < 1e-14


def test_free_case_counts_noncrossing():
    # q = 0 keeps only non-crossing pairings: catalan-style counts
    qp = QParams(q=0.0, n=1, mu=(1.0,))
    assert abs(moment("(g+g*)^4", qp) - 2.0) < 1e-14
    assert abs(moment("(g+g*)^6", qp) - 5.0) < 1e-14


def test_crossing_pairs_hand_cases():
    assert _crossing_pairs([]) == []
    assert _crossing_pairs([(0, 3), (1, 2)]) == []                   # nested
    assert _crossing_pairs([(0, 1), (2, 3)]) == []                   # side by side
    assert _crossing_pairs([(0, 2), (1, 3)]) == [(0, 1)]             # one crossing
    assert _crossing_pairs([(1, 3), (0, 2)]) == [(0, 1)]             # in either order
    assert _crossing_pairs([(0, 3), (1, 4), (2, 5)]) == [(0, 1), (0, 2), (1, 2)]
    assert _crossing_pairs([(0, 5), (1, 3), (2, 4)]) == [(1, 2)]     # one inside another


def crossing_pairs_sum(letters, params):
    """moment_pairings' sum with each partition's crossings counted by _crossing_pairs,
    and the sum of the terms' magnitudes."""
    total = scale = 0.0
    for pairs, weight, _ in _pairings(_pair_weights(letters, params.mu)):
        term = weight * params.q ** len(_crossing_pairs(pairs))
        total += term
        scale += abs(term)
    return complex(total), scale


def test_pairing_sum_counts_crossings_as_pairs_are_placed():
    """Bit for bit the sum that counts each partition's crossings with _crossing_pairs."""
    rng = np.random.default_rng(21)
    cases = [(parse_word("(g+g*)^10"), QParams(q=0.9)),
             (parse_word("g*g*ggg*g*ggg*g"), QParams(q=-0.999, mu=(1e30,)))]
    tokens = [("g", 1), ("g*", 1), ("g", 2), ("g*", 2), ("x", 1), ("x", 2)]
    for _ in range(150):
        length = int(rng.integers(1, 11))
        letters = [tokens[t] for t in rng.integers(0, len(tokens), length)]
        q = float(rng.choice([-1.0, -0.999, -0.5, 0.0, 0.3, 0.9]))
        cases.append((letters, QParams(q=q, n=2, mu=tuple(rng.uniform(1.0, 3.0, 2)))))
    nonzero = 0
    for letters, params in cases:
        want, scale = crossing_pairs_sum(letters, params)
        got = moment_pairings(letters, params)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        got, got_scale = moment_pairings(letters, params, scale=True)
        assert got_scale.hex() == scale.hex() and got == want
        nonzero += want != 0
    assert nonzero >= 20      # most random words have no pairing of non-zero weight


def test_oracle_agreement_exhaustive_n1():
    qp = QParams(q=-0.7, n=1, mu=(1.4,))
    worst = 0.0
    for length in (2, 4, 6):
        for kinds in itertools.product(("g", "g*"), repeat=length):
            letters = [(k, 1) for k in kinds]
            a = moment_operator(letters, qp)
            b = moment_pairings(letters, qp)
            worst = max(worst, abs(a - b))
    assert worst <= 1e-12


def test_oracle_agreement_random_mixed_indices():
    rng = np.random.default_rng(2)
    qp = QParams(q=0.6, n=3, mu=(1.0, 1.5, 2.0))
    for _ in range(100):
        length = int(rng.choice([2, 4, 6]))
        letters = [(("g", "g*", "x")[rng.integers(0, 3)], int(rng.integers(1, 4)))
                   for _ in range(length)]
        a = moment_operator(letters, qp)
        b = moment_pairings(letters, qp)
        assert abs(a - b) <= 1e-12


def expanded_pairing_moment(letters, mu, q):
    """tau of the word by expanding every x letter into its g and g* halves
    and enumerating the pairings of each of the 2**k pure g/g* words."""
    options = []
    for kind, i in letters:
        nrm = 1.0 / np.sqrt(mu[i - 1] ** 2 + mu[i - 1] ** -2)
        options.append({"g": [(1.0, False)], "g*": [(1.0, True)],
                        "x": [(nrm, False), (nrm, True)]}[kind])
    total = 0.0
    for combo in itertools.product(*options):
        word = [(i, star) for (_, i), (_, star) in zip(letters, combo)]
        scalar = float(np.prod([c for c, _ in combo]))

        def rec(avail, pairs, weight):
            if not avail:
                crossings = sum(a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1
                                for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2))
                return weight * q ** crossings
            out = 0.0
            a = avail[0]
            for idx in range(1, len(avail)):
                (i, sa), (j, sb) = word[a], word[avail[idx]]
                if i == j and sa != sb:
                    w = mu[i - 1] ** -2 if sa else mu[i - 1] ** 2
                    out += rec(avail[1:idx] + avail[idx + 1:], pairs + [(a, avail[idx])],
                               weight * w)
            return out

        if len(word) % 2 == 0:
            total += scalar * rec(list(range(len(word))), [], 1.0)
    return total


def test_pairings_match_expanded_words():
    """One enumeration of the pairings with summed letter parts equals the
    sum over every g/g* expansion of the x letters; at q = -1 this is the
    only check, the operator route being undefined there."""
    rng = np.random.default_rng(12)
    for q in (-1.0, -0.5, 0.0, 0.3, 0.9):
        for _ in range(60):
            n = int(rng.integers(1, 3))
            qp = QParams(q=q, n=n, mu=tuple(1.0 + 2.0 * rng.random(n)))
            letters = [(("g", "g*", "x")[rng.integers(0, 3)], int(rng.integers(1, n + 1)))
                       for _ in range(int(rng.integers(1, 9)))]
            got = moment_pairings(letters, qp)
            want = expanded_pairing_moment(letters, qp.mu, q)
            # at q < 0 the terms can cancel exactly, so the scale is the sum of
            # their magnitudes: the same moment at |q|, every term positive
            scale = expanded_pairing_moment(letters, qp.mu, abs(q))
            assert got.imag == 0.0
            assert abs(got.real - want) <= 1e-12 * scale


def test_letter_parts():
    assert letter_parts("g", 2.0) == (1.0, 0.0)
    assert letter_parts("g*", 2.0) == (0.0, 1.0)
    c_g, c_s = letter_parts("x", 2.0)
    assert c_g == c_s and abs(c_g ** 2 * (4.0 + 0.25) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="unknown letter kind"):
        letter_parts("h", 2.0)


ORACLES = {
    "operator": lambda letters: moment_operator(letters, QParams(q=0.3, n=2, mu=(1, 2))),
    "pairings": lambda letters: moment_pairings(letters, QParams(q=0.3, n=2, mu=(1, 2))),
    "moment q=-1": lambda letters: moment(letters, QParams(q=-1.0, n=2, mu=(1, 2))),
    "moment q=0.3": lambda letters: moment(letters, QParams(q=0.3, n=2, mu=(1, 2))),
}


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("letters", [[("h", 1), ("h", 1)], [("g*", 0), ("g", 0)],
                                     [("g*", 3), ("g", 3)]],
                         ids=["kind h", "index 0", "index n+1"])
def test_bad_letters_raise_on_every_route(oracle, letters):
    """Index 0 once read mu[-1] on the pairing route, index n + 1 raised
    IndexError there, and an unknown kind was taken as x by the operator."""
    with pytest.raises(ValueError):
        ORACLES[oracle](letters)


def test_moment_positive_on_w_star_w():
    rng = np.random.default_rng(3)
    qp = QParams(q=0.3, n=2, mu=(1.2, 1.7))
    for _ in range(25):
        length = int(rng.integers(1, 4))
        w = [(("g", "g*")[rng.integers(0, 2)], int(rng.integers(1, 3)))
             for _ in range(length)]
        val = moment(word_adjoint(w) + w, qp)
        assert val.real >= -1e-12 and abs(val.imag) < 1e-12


def test_positivity_check_values():
    assert abs(positivity_check(2, 0.5, [(1, 2), (2, 1)]) - 0.5) < 1e-12
    assert abs(positivity_check(2, 0.0, [(1, 2), (2, 1)]) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    words = {tuple(int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
                   for _ in range(4)) for _ in range(12)}
    assert positivity_check(4, -0.95, sorted(words)) > 0.0


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.5])
def test_qparams_rejects_bad_weights(mu):
    # a NaN weight used to pass and make the two oracles disagree silently
    with pytest.raises(ValueError, match="mu entries must be"):
        QParams(q=0.3, n=1, mu=(mu,))
    with pytest.raises(ValueError, match="mu entries must be"):
        QParams(q=0.3, n=2, mu=(1.5, mu))


def test_parse_word():
    assert parse_word("g*g") == [("g*", 1), ("g", 1)]
    assert parse_word("(g+g*)^4") == [("x", 1)] * 4
    assert parse_word("(s+s*)^2 s2*") == [("x", 1), ("x", 1), ("g*", 2)]
    assert parse_word("g2 g2*") == [("g", 2), ("g*", 2)]
    with pytest.raises(ValueError):
        parse_word("(g1+g2*)")
    with pytest.raises(ValueError):
        parse_word("^3")
    with pytest.raises(ValueError):
        parse_word("h")
