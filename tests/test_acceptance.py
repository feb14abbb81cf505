"""Acceptance suite: one criterion per test, stated tolerances, pass/fail lines.

Each test prints one line `ACCEPTANCE <k> <name>: PASS|FAIL ...` (also
through captured output to the real stdout, so the lines survive plain
pytest runs).  Run `pytest -s tests/test_acceptance.py` to see them
inline.
"""

import itertools
import sys
import time

import numpy as np

from gns_oracle import (apply_gamma, apply_gamma_star, dual_contraction_ratio, generator_norm,
                        haagerup_norm, identity, l2_pythagoras_residual, modular_check,
                        reconstruct, verify_relations)
from paper_reference import (asym_convexity_check, bcl_check, decomposition_identity_check,
                             disjoint_support_check, dual_convexity_check,
                             gamma_lower_bound_check, gram_matrix, positivity_check, q_inner)
from qhyper.babyfock import BabyFock, get_model
from qhyper.clt import convergence_report
from qhyper.hyperc import (convexity_margins_sv, convexity_stack, necessary_time_exact,
                           sufficient_time, violation_search)
from qhyper.linalg import (expansion_second_order, expansion_via_frechet,
                           richardson_second_coeff, schatten_norm,
                           schatten_norm_from_sv, singular_values)
from qhyper.qfock import (QParams, annihilate_apply, create_apply, moment, moment_operator,
                          moment_pairings, parse_word)
from qhyper.semigroup import choi_identity_residual, choi_matrix
from qhyper.signs import ModelParams, SignTable
from qhyper.state import defining_property_residual, density_solve, get_density


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_01_relations():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst_rel, worst_nrm = 0.0, 0.0
    for k in range(20):
        n = 1 + k % 5
        mu = tuple(1.0 + 3.0 * rng.random(n))
        model = BabyFock(ModelParams.make(n, mu, sign_seed=500 + k))
        worst_rel = max(worst_rel, *verify_relations(model).values())
        for i in range(1, n + 1):
            expect = np.sqrt(mu[i - 1] ** 2 + mu[i - 1] ** -2)
            got = generator_norm(model, i)
            worst_nrm = max(worst_nrm, abs(got - expect) / expect)
    elapsed = time.time() - t0
    ok = worst_rel <= 1e-12 and worst_nrm <= 1e-10 and elapsed <= 60
    _report(1, "relations", ok,
            f"(max residual {worst_rel:.2e}, norm {worst_nrm:.2e}, {elapsed:.0f}s)")


def test_criterion_02_density():
    t0 = time.time()
    rng = np.random.default_rng(1002)
    worst_solve, worst_def, worst_state, worst_l2 = 0.0, 0.0, 0.0, 0.0
    for n in (1, 2, 3, 4):
        mu = tuple(1.0 + 2.0 * rng.random(n))
        model = BabyFock(ModelParams.make(n, mu, sign_seed=600 + n))
        D = get_density(model)
        solved = reconstruct(model, density_solve(model))
        worst_solve = max(worst_solve, float(
            np.linalg.norm(solved - D) / np.linalg.norm(D)))
        worst_def = max(worst_def, defining_property_residual(model, D))
        for i in range(1, n + 1):
            g = apply_gamma(model, i, identity(model))
            tr = float(np.trace(D @ apply_gamma_star(model, i, g)).real)
            worst_state = max(worst_state, abs(tr - mu[i - 1] ** -2))
            l2 = haagerup_norm(model, g, 2)
            worst_l2 = max(worst_l2, abs(l2 - 1.0 / mu[i - 1]))
    elapsed = time.time() - t0
    ok = (worst_solve <= 1e-9 and worst_def <= 1e-10 and worst_state <= 1e-10
          and worst_l2 <= 1e-10 and elapsed <= 120)
    _report(2, "density", ok,
            f"(solve {worst_solve:.2e}, defining {worst_def:.2e}, "
            f"state {worst_state:.2e}, l2 {worst_l2:.2e}, {elapsed:.0f}s)")


def test_criterion_03_modular():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for n in (1, 2, 3, 4):
        mu = tuple(1.0 + 2.0 * rng.random(n))
        model = BabyFock(ModelParams.make(n, mu, sign_seed=700 + n))
        for p in (1.0, 1.5, 2.0, 3.0):
            worst = max(worst, max(modular_check(model, p)))
    ok = worst <= 1e-9
    _report(3, "modular", ok, f"(max relative residual {worst:.2e})")


def test_criterion_04_choi():
    ts = np.arange(0.0, 5.0 + 1e-9, 0.01)
    mus = np.arange(1.0, 4.0 + 1e-9, 0.1)
    worst_eig, worst_ident = np.inf, 0.0
    for mu in mus:
        mats = np.stack([choi_matrix(t, mu) for t in ts])
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(mats))))
        worst_ident = max(worst_ident,
                          max(choi_identity_residual(t, mu) for t in ts))
    ok = worst_eig >= -1e-12 and worst_ident <= 1e-12
    _report(4, "choi", ok,
            f"(min eigenvalue {worst_eig:.2e}, identity {worst_ident:.2e})")


def test_criterion_05_convexity():
    t0 = time.time()
    rng = np.random.default_rng(1005)
    ps = [1.1 + 0.1 * k for k in range(10)]
    mus = [1.0, 1.5, 2.0, 3.0]
    qs = [2.0, 3.0, 4.0]
    worst = 0.0

    # draws in sample order, grouped by size
    pairs = {}
    for k in range(10_000):
        m = 2 + k % 15
        A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        B = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        pairs.setdefault(m, []).append((A, B, mus[k % 4]))
    for m, group in pairs.items():
        A, B, mu = (np.array(x) for x in zip(*group))
        q = qs[(m - 2) % 3]         # k % 3 = (k % 15) % 3: one q per size
        # one stacked SVD per size, reused for every p
        s = singular_values(convexity_stack(A, B, mu))
        for p in ps:
            nA, nB = schatten_norm_from_sv(s[:, :2], p).T
            bcl, asym, dual = convexity_margins_sv(s, p, mu, q)
            worst = min(worst, np.min(bcl / (nA ** 2 + nB ** 2)),
                        np.min(asym / (nA ** 2 + nB ** 2)))
        # the dual margin does not depend on p
        nX, nY = schatten_norm_from_sv(s[:, :2], q).T
        worst = min(worst, np.min(dual / (nX ** 2 + nY ** 2)))
    # spot check the stacked margins against the per-sample functions
    spot = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    spot2 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    direct = (bcl_check(spot, spot2, 1.5), asym_convexity_check(spot, spot2, 1.5, 2.0),
              dual_convexity_check(spot, spot2, 3.0, 2.0))
    fast = convexity_margins_sv(singular_values(convexity_stack(spot[None], spot2[None], 2.0)),
                                1.5, 2.0, 3.0)
    agreement = all(abs(d - f[0]) < 1e-9 * max(1.0, abs(d)) for d, f in zip(direct, fast))
    elapsed = time.time() - t0
    ok = worst >= -1e-10 and agreement and direct[1] > -1e-9 and direct[2] > -1e-9 \
        and elapsed <= 300
    _report(5, "convexity", ok, f"(min margin {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_06_hyperc_positive():
    t0 = time.time()
    grids = []
    for mu in (1.0, 1.5, 2.0, 2.5):
        grids.append(ModelParams.make(1, mu, SignTable.all_anticommuting(1)))
    for k, mu in enumerate([(1.0, 1.0), (1.0, 2.5), (1.75, 2.5)]):
        grids.append(ModelParams.make(2, mu, sign_seed=800 + k))
    for k, mu in enumerate([(1.0, 1.75, 2.5), (2.5, 2.5, 2.5)]):
        grids.append(ModelParams.make(3, mu, sign_seed=900 + k))
    worst = 0.0
    for params in grids:
        model = get_model(params)
        for p in (1.25, 1.5, 1.75):
            theta = sufficient_time(p, params.mu)
            t = -0.5 * np.log(theta)
            wit = violation_search(model, t, p, "primal", restarts=1000,
                                   seed=2026)
            worst = max(worst, wit.ratio)
    elapsed = time.time() - t0
    ok = worst <= 1.0 + 1e-9 and elapsed <= 900
    _report(6, "hypercontractivity positive", ok,
            f"(max ratio - 1 = {worst - 1:.2e}, {elapsed:.0f}s)")


def test_criterion_07_optimality_negative():
    ok = True
    details = []
    for pprime in (4, 6):
        n_half = pprime // 2
        for mu in (1.0, 1.3, 2.0):
            thr = necessary_time_exact(n_half, mu)
            params = ModelParams.make(1, mu, SignTable.all_anticommuting(1))
            model = get_model(params)
            wit = identity(model) + 1e-2 * apply_gamma(model, 1, identity(model))
            r_above = dual_contraction_ratio(
                model, wit, -0.5 * np.log(1.05 * thr.exact), float(pprime))
            r_below = dual_contraction_ratio(
                model, wit, -0.5 * np.log(0.95 * thr.exact), float(pprime))
            flag_ok = thr.differs == (mu > 1.0)
            ok = ok and r_above > 1.0 and r_below < 1.0 and flag_ok
            details.append(f"p'={pprime} mu={mu}: exact {thr.exact:.4f} "
                           f"display {thr.paper_display:.4f}"
                           + (" (discrepancy flagged)" if thr.differs else ""))
    _report(7, "optimality negative", ok, "(" + "; ".join(details) + ")")


def test_criterion_08_perturbation():
    worst_fd, worst_special, worst_tr = 0.0, 0.0, 0.0
    for mu in (1.2, 1.5, 2.0):
        params = ModelParams.make(1, mu, SignTable.all_anticommuting(1))
        model = get_model(params)
        g = apply_gamma(model, 1, identity(model))
        ident = np.eye(model.dim)
        D = get_density(model)
        worst_tr = max(worst_tr,
                       abs(float(np.trace(D @ g.conj().T @ g).real) - mu ** -2),
                       abs(float(np.trace(D @ g @ g.conj().T).real) - mu ** 2))
        for p in (3.0, 4.0, 6.0):
            d = get_density(model, 1.0 / p)
            # the expansion takes a diagonal d: diagonalize it, and write g in its eigenbasis
            w, v = np.linalg.eigh(d)
            gw = v.conj().T @ g @ v
            frech = expansion_via_frechet(w, gw, p)
            closed = expansion_second_order(w, gw, p, 4.0 / p * np.log(mu))
            # the step ``perturb`` takes: f(0) = trace(D) = 1
            fd = richardson_second_coeff(
                lambda e: schatten_norm((ident + e * g) @ d, p) ** p, 0.1 / np.sqrt(closed))
            worst_fd = max(worst_fd, abs(frech - fd) / abs(fd))
            special = (p / (2 * mu ** 2)) * (mu ** 4 - 1) / (mu ** (8 / p) - 1)
            worst_special = max(worst_special, abs(closed - special) / special)
    ok = worst_fd <= 1e-4 and worst_special <= 1e-6 and worst_tr <= 1e-10
    _report(8, "perturbation", ok,
            f"(fd {worst_fd:.2e}, closed {worst_special:.2e}, traces {worst_tr:.2e})")


def test_criterion_09_qfock():
    ok = True
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        ok = ok and np.allclose(gram_matrix([(1, 2), (2, 1)], q),
                                [[1.0, q], [q, 1.0]], atol=0.0)
        rng = np.random.default_rng(1009)
        for level in (2, 3, 4):
            words = sorted({tuple(int(rng.integers(1, 3))
                                  * (1 if rng.random() < 0.5 else -1)
                                  for _ in range(level)) for _ in range(10)})
            ok = ok and positivity_check(level, q, words) > 0.0
    worst_moment = 0.0
    for q in (-0.5, 0.0, 0.5, 0.9):
        qp1 = QParams(q=q, n=1, mu=(1.0,))
        worst_moment = max(worst_moment,
                           abs(moment("(g+g*)^4", qp1) - (2.0 + q)))
    worst_agree = 0.0
    qp = QParams(q=-0.7, n=1, mu=(1.5,))
    for length in (2, 4, 6):
        for kinds in itertools.product(("g", "g*"), repeat=length):
            letters = [(k, 1) for k in kinds]
            worst_agree = max(worst_agree, abs(moment_operator(letters, qp)
                                               - moment_pairings(letters, qp)))
    # adjointness on random vectors
    rng = np.random.default_rng(1010)
    worst_adj = 0.0
    for q in (-0.9, -0.5, 0.0, 0.5, 0.9):
        qpq = QParams(q=q, n=2, mu=(1.0, 1.0))
        for _ in range(5):
            def rand_vec():
                v = {}
                for _ in range(10):
                    lvl = int(rng.integers(0, 4))
                    w = tuple(int(rng.integers(1, 3))
                              * (1 if rng.random() < 0.5 else -1)
                              for _ in range(lvl))
                    v[w] = v.get(w, 0.0) + complex(*rng.standard_normal(2))
                return v
            x, y = rand_vec(), rand_vec()
            lhs = q_inner(create_apply(1, x, qpq), y, q)
            rhs = q_inner(x, annihilate_apply(1, y, qpq), q)
            worst_adj = max(worst_adj, abs(lhs - rhs))
    ok = ok and worst_moment <= 1e-12 and worst_agree <= 1e-12 and worst_adj <= 1e-12
    _report(9, "q-Fock", ok,
            f"(moment {worst_moment:.2e}, oracles {worst_agree:.2e}, "
            f"adjoint {worst_adj:.2e})")


def test_criterion_10_clt():
    t0 = time.time()
    word2 = parse_word("s*s")
    ok = True
    for row in convergence_report(word2, 0.5, (1.7,), [5, 17, 40], samples=10, seed=77):
        ok = ok and abs(row["mean"] - 1.7 ** -2) < 1e-12 and row["stderr"] < 1e-13
    word4 = parse_word("(s+s*)^4")
    worst_final = 0.0
    improve = 0
    trials = 0
    for q in (0.5, -0.5):
        oracle = 2.0 + q
        for seed in range(20):
            e5, e40 = (abs(row["mean"] - oracle) for row in convergence_report(
                word4, q, (1.0,), [5, 40], 200, seed))
            trials += 1
            improve += int(e40 < e5)
            worst_final = max(worst_final, e40)
    elapsed = time.time() - t0
    frac = improve / trials
    ok = ok and frac >= 0.95 and worst_final <= 0.05 and elapsed <= 600
    _report(10, "central limit", ok,
            f"(improved {improve}/{trials}, final err {worst_final:.3f}, {elapsed:.0f}s)")


def test_criterion_11_lp_growth():
    worst_closed = 0.0
    ratios = []
    for mu in (2.0, 4.0, 8.0):
        params = ModelParams.make(1, mu, SignTable.all_anticommuting(1))
        model = get_model(params)
        g = apply_gamma(model, 1, identity(model))
        for p in (2.0, 3.0, 4.0, 6.0):
            nrm = haagerup_norm(model, g, p)
            ratios.append(nrm / mu ** (1.0 - 4.0 / p))
            closed = (mu ** 2 + mu ** -2) ** 0.5 * (1.0 + mu ** 4) ** (-1.0 / p)
            worst_closed = max(worst_closed, abs(nrm - closed) / closed)
    ok = all(0.7 <= r <= 1.5 for r in ratios) and worst_closed <= 1e-10
    _report(11, "Lp growth", ok,
            f"(ratios in [{min(ratios):.3f}, {max(ratios):.3f}], "
            f"closed form {worst_closed:.2e})")


def test_criterion_12_structural():
    t0 = time.time()
    rng = np.random.default_rng(1012)
    worst_decomp, worst_margin, worst_disj, worst_pyth = 0.0, 0.0, 0.0, 0.0
    for n, count in ((2, 500), (3, 500)):
        params = ModelParams.make(n, tuple(1.0 + rng.random(n)), sign_seed=1100 + n)
        model = get_model(params)
        small = get_model(params.sub(n - 1))
        for k in range(count):
            p = (1.5, 2.0, 3.0)[k % 3]
            # monomial coefficients, drawn as ``random_element`` draws them
            a, b, c, d = (rng.standard_normal(small.dim) + 1j * rng.standard_normal(small.dim)
                          for _ in range(4))
            rep = decomposition_identity_check(a, d, p, model)
            worst_decomp = max(worst_decomp, rep["residual"] / rep["scale"])
            rep = gamma_lower_bound_check(b, c, p, model)
            worst_margin = max(worst_margin,
                               -rep["margin_b"] / rep["scale_b"],
                               -rep["margin_c"] / rep["scale_c"])
            rep = disjoint_support_check(b, c, p, model)
            worst_disj = max(worst_disj, rep["residual"] / rep["scale"])
            if k % 10 == 0:
                worst_pyth = max(worst_pyth, l2_pythagoras_residual(
                    model, *(reconstruct(small, x) for x in (a, b, c, d)), 0.1 + 0.3 * (k % 4)))
    elapsed = time.time() - t0
    ok = (worst_decomp <= 1e-9 and worst_margin <= 1e-10 and worst_disj <= 1e-9
          and worst_pyth <= 1e-9)
    _report(12, "structural", ok,
            f"(decomp {worst_decomp:.2e}, margins {worst_margin:.2e}, "
            f"disjoint {worst_disj:.2e}, pythagoras {worst_pyth:.2e}, {elapsed:.0f}s)")
