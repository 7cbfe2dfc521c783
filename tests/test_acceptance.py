"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
`criterion N <name>: PASS/FAIL (...)` line with the measured numbers.
All thresholds are checked against independent exact oracles
(closed-form support functions, brute-force vertex LP); nothing is
compared against the code under test's own answers.
"""

import math
import time
from dataclasses import asdict

import numpy as np

from orc.bodies import (Ball, BoxBody, ExactMembership, ExactOptimization,
                        ExactSeparation, ExactValidity, ExactViolation,
                        Linear, Quadratic, Simplex, brute_force_lp,
                        exact_eval, random_hpolytope)
from orc.core import RandomStream
from orc.ellipsoid import (EllipsoidState, OptimizerConfig, ellipsoid_cut,
                           opt_from_viol, optimize_linear, viol_from_opt)
from orc.experiments import fit_scaling, run_experiment, write_csv
from orc.geometry import unit
from orc.reductions import (EpigraphBody, eval_from_mem_epigraph,
                            sep_from_opt, support_eval_from_opt)
from orc.separation import SepFromMem
from orc.subgrad import (EstimatorParams, expected_flatness_defect,
                         sample_box_points, separate_convex_func)


def _report(emit, num, name, ok, detail):
    emit(f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _body_families(n, rng):
    fams = {
        "ball": [Ball(np.zeros(n), 1.0)],
        "box": [BoxBody(np.zeros(n), 1.0)],
        "simplex": [Simplex(n, 1.0)],
        "hpoly": [random_hpolytope(n, rng.child("hpoly", k))
                  for k in range(20)],
    }
    return fams


def test_criterion_1_separation_soundness(verdict_line):
    start = time.perf_counter()
    eps, rho = 1e-4, 0.1
    trials_per_cell = 200
    pooled = sound = far_total = far_sound = 0
    master = RandomStream(1001)
    for n in (2, 5, 10):
        for fam_name, members in _body_families(n, master.child(n)).items():
            for fi, factor in enumerate((1.05, 1.5, 3.0)):
                for t in range(trials_per_cell):
                    body = members[t % len(members)]
                    rng = master.child(n, fam_name, fi, t)
                    g = body.geometry
                    # skinny seeded polytopes can certify an inner radius
                    # below eps; the estimator needs eps <= r after the
                    # rescale to B(0, 1)
                    eps_body = min(eps, 0.9 * g.r / g.R, 0.4 / g.R)
                    sep = SepFromMem(ExactMembership(body), g,
                                     rng.child("sep"), eps=eps_body, rho=rho)
                    u = unit(rng.child("dir").generator().normal(size=n))
                    x = body.geometry.center + factor * body.radial_scale(u) * u
                    ans = sep(x, 0.01)
                    pooled += 1
                    ok = False
                    if ans.halfspace is not None:
                        h = ans.halfspace
                        sup, _ = body.support(h.normal)
                        ok = sup <= float(h.normal @ h.anchor) + h.slack + 1e-12
                    sound += ok
                    if factor == 3.0:
                        far_total += 1
                        far_sound += ok
    elapsed = time.perf_counter() - start
    rate = sound / pooled
    far_rate = far_sound / far_total
    ok = rate >= 0.95 and far_rate >= 0.99 and elapsed < 120.0
    _report(verdict_line, 1, "separation soundness", ok,
            f"pooled {100 * rate:.2f}% of {pooled}, far {100 * far_rate:.2f}%,"
            f" {elapsed:.1f}s")


def test_criterion_2_subgradient_exactness(verdict_line):
    worst_lin = worst_quad = 0.0
    for n in (2, 5, 10):
        for seed in range(100):
            rng = RandomStream(seed).child(n)
            gen = rng.child("setup").generator()
            a = gen.normal(size=n)
            f_lin = Linear(a, float(gen.normal()))
            x = 0.2 * gen.normal(size=n)
            params = EstimatorParams(x, r1=0.1, eps=1e-9, L=2.0, r2=0.05)
            g = separate_convex_func(lambda p, d: exact_eval(f_lin, p),
                                     params, rng.child("lin"))
            worst_lin = max(worst_lin, float(np.max(np.abs(g - a))))
            # f = ||p||^2: each chord difference is exactly 2*y_i
            y, _ = sample_box_points(params, rng.child("quad"))
            g2 = separate_convex_func(lambda p, d: float(p @ p),
                                      params, rng.child("quad"))
            worst_quad = max(worst_quad, float(np.max(np.abs(g2 - 2.0 * y))))
    ok = worst_lin <= 1e-12 and worst_quad <= 1e-12
    _report(verdict_line, 2, "subgradient exactness", ok,
            f"linear max dev {worst_lin:.2e}, quadratic max dev "
            f"{worst_quad:.2e} (tol 1e-12)")


def test_criterion_3_flatness_bound(verdict_line):
    start = time.perf_counter()
    worst_ratio = 0.0
    r1, r2 = 0.1, 0.01
    for n in (2, 5, 10):
        for seed in range(3):
            gen = RandomStream(seed).child(n, "flat").generator()
            B = gen.normal(size=(n, n))
            A = B.T @ B
            A /= np.linalg.norm(A, 2)
            f = Quadratic(A)
            # Lipschitz constant of f over the sampled boxes around 0
            L = 2.0 * float(np.linalg.norm(A, 2)) * (r1 + r2) * math.sqrt(n)
            defect = expected_flatness_defect(
                f, np.zeros(n), r1, r2, 10_000, RandomStream(seed).child(n))
            bound = n ** 1.5 * (r2 / r1) * L * 1.05
            worst_ratio = max(worst_ratio, defect / bound)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 60.0
    _report(verdict_line, 3, "flatness bound", ok,
            f"worst defect/bound {worst_ratio:.3f}, {elapsed:.1f}s")


def test_criterion_4_noise_propagation(verdict_line):
    worst_ratio = 0.0
    n = 4
    a = np.arange(1.0, n + 1.0)
    f = Linear(a, 0.0)
    eps = 1e-5
    params = EstimatorParams(np.zeros(n), r1=0.05, eps=eps, L=5.0)
    cap = eps / params.r2
    for seed in range(100):
        g_exact = separate_convex_func(lambda p, d: exact_eval(f, p),
                                       params, RandomStream(seed))
        gen = np.random.default_rng(seed + 10_000)
        noisy = lambda p, d: exact_eval(f, p) + gen.uniform(-eps, eps)
        g_noisy = separate_convex_func(noisy, params, RandomStream(seed))
        dev = float(np.max(np.abs(g_noisy - g_exact)))
        worst_ratio = max(worst_ratio, dev / cap)
    ok = worst_ratio <= 1.0 + 1e-9
    _report(verdict_line, 4, "noise propagation", ok,
            f"worst deviation {100 * worst_ratio:.1f}% of eps/r2 cap")


def test_criterion_5_optimization_accuracy(verdict_line):
    start = time.perf_counter()
    eps = 1e-3

    def closed_form_pass(body, c, answer, tol_eps):
        sup, _ = body.support(c)
        gap = sup - float(c @ answer.maximizer)
        return gap <= tol_eps * float(np.linalg.norm(c)) * (
            1.0 + body.geometry.kappa)

    # (a) exact separation on ball / box / simplex: must be perfect
    exact_pass = 0
    cases = []
    for i in range(100):
        n = 2 + i % 2
        body = [Ball(np.zeros(n), 1.0), BoxBody(np.zeros(n), 1.0),
                Simplex(n, 1.0)][i % 3]
        c = unit(RandomStream(i).child("c").generator().normal(size=n))
        cases.append((body, c))
        ans = optimize_linear(OptimizerConfig(eps=eps), ExactSeparation(body),
                              body.geometry, c)
        exact_pass += closed_form_pass(body, c, ans, eps)

    # (b) separation built from membership: >= 90%
    mem_pass = 0
    for i, (body, c) in enumerate(cases):
        sep = SepFromMem(ExactMembership(body), body.geometry,
                         RandomStream(i).child("sep"), eps=eps * 1e-2,
                         rho=0.1)
        ans = optimize_linear(OptimizerConfig(eps=eps), sep,
                              body.geometry, c)
        mem_pass += closed_form_pass(body, c, ans, eps)

    # (c) seeded polytopes (n <= 4) against the brute-force vertex LP
    lp_pass = 0
    for i in range(20):
        n = 2 + i % 3
        body = random_hpolytope(n, RandomStream(500 + i).child("poly"))
        c = unit(RandomStream(500 + i).child("c").generator().normal(size=n))
        ans = optimize_linear(OptimizerConfig(eps=eps), ExactSeparation(body),
                              body.geometry, c)
        val, _ = brute_force_lp(body, c)
        gap = val - float(c @ ans.maximizer)
        lp_pass += gap <= eps * (1.0 + body.geometry.kappa)
    elapsed = time.perf_counter() - start
    ok = (exact_pass == 100 and mem_pass >= 90 and lp_pass >= 18
          and elapsed < 300.0)
    _report(verdict_line, 5, "optimization accuracy", ok,
            f"exact SEP {exact_pass}/100, SEP-from-MEM {mem_pass}/100, "
            f"brute-force LP {lp_pass}/20, {elapsed:.1f}s")


def test_criterion_6_query_count_scaling(verdict_line):
    start = time.perf_counter()
    sep_cfg = {
        "experiment": "scaling-sep", "chain": "sep_from_mem",
        "body": {"kind": "simplex"}, "dims": [2, 4, 8, 16],
        "eps": [1e-10], "seeds": [1, 2, 3, 4, 5], "trials": 10,
    }
    rows = [asdict(r) for r in run_experiment(sep_cfg)]
    mem_slope, mem_err = fit_scaling(rows, "n", "mem_calls",
                                     log_factor="log(1/eps)")

    opt_cfg = {
        "experiment": "scaling-opt", "chain": "opt_from_sep",
        "body": {"kind": "box"}, "dims": [2, 4, 8, 16],
        "eps": [1e-3], "seeds": [1, 2, 3], "trials": 5,
    }
    rows = [asdict(r) for r in run_experiment(opt_cfg)]
    opt_slope, opt_err = fit_scaling(rows, "n", "sep_calls")
    elapsed = time.perf_counter() - start
    ok = (0.9 <= mem_slope <= 1.15 and 1.8 <= opt_slope <= 2.2
          and elapsed < 600.0)
    _report(verdict_line, 6, "query-count scaling", ok,
            f"MEM-per-SEP slope {mem_slope:.3f}±{mem_err:.3f} (band "
            f"[0.9, 1.15]), SEP-per-OPT slope {opt_slope:.3f}±{opt_err:.3f} "
            f"(band [1.8, 2.2]), {elapsed:.1f}s; the engine is O(n^3 log) "
            f"total membership queries, not the O(n^2) headline")


def test_criterion_7_ellipsoid_volume_law(verdict_line):
    worst = 0.0
    for n in (2, 5, 10):
        gen = np.random.default_rng(n)
        state = EllipsoidState.ball(np.zeros(n), 1.0)
        target = 1.0 / (2.0 * (n + 1))
        for _ in range(1000):
            new = ellipsoid_cut(state, unit(gen.normal(size=n)))
            worst = max(worst, abs(
                (state.log_volume() - new.log_volume()) - target))
            state = new
    ok = worst <= 1e-9
    _report(verdict_line, 7, "ellipsoid volume law", ok,
            f"max |decrement - 1/(2(n+1))| = {worst:.2e} over 3000 cuts")


def test_criterion_8_reduction_round_trips(verdict_line):
    start = time.perf_counter()
    # OPT <-> VIOL round trip within 2 delta
    delta = 1e-4
    spec = BoxBody(np.zeros(3), 1.0)
    opt = opt_from_viol(ExactViolation(spec), spec.geometry, delta)
    viol_rt = viol_from_opt(opt)
    rt_ok = 0
    for seed in range(50):
        c = unit(RandomStream(seed).child("rt").generator().normal(size=3))
        sup, _ = spec.support(c)
        val = float(c @ opt(c, delta).maximizer)
        good = abs(val - sup) <= 2.0 * delta * (1.0 + spec.geometry.kappa)
        good &= viol_rt(c, sup - 3.0 * delta, delta).witness is not None
        rt_ok += good

    # EVAL(f) from MEM(K_f) recovers f = ||x|| within 2^-11 at delta 2^-12
    eb = EpigraphBody(lambda y, d: float(np.linalg.norm(y)), 3)
    ev = eval_from_mem_epigraph(eb.as_mem(), 3)
    eval_ok = 0
    for seed in range(50):
        y = RandomStream(seed).child("pt").generator().normal(size=3)
        y = 0.8 * y / max(1.0, float(np.linalg.norm(y)))
        eval_ok += abs(ev(y, 2.0 ** -12) - np.linalg.norm(y)) <= 2.0 ** -11

    # support evaluation on the unit ball is 1 on unit directions
    ball = Ball(np.zeros(3), 1.0)
    sup_eval = support_eval_from_opt(ExactOptimization(ball), ball.geometry)
    sup_ok = 0
    for seed in range(100):
        c = unit(RandomStream(seed).child("dir").generator().normal(size=3))
        sup_ok += abs(sup_eval(c, 1e-3) - 1.0) <= 1e-3

    # separation recovered from optimization contains the ball; n = 2
    # keeps the epigraph optimization inside the two-minute budget
    ball2 = Ball(np.zeros(2), 1.0)
    sep_ok = 0
    for seed in range(100):
        rng = RandomStream(seed).child("sfo")
        sep = sep_from_opt(ExactOptimization(ball2), ball2.geometry,
                           rng.child("chain"), eps=0.02, sep_eps=1e-4)
        u = unit(rng.child("dir").generator().normal(size=2))
        x = 1.5 * u
        h = sep(x, 0.01).halfspace
        if h is not None:
            sup, _ = ball2.support(h.normal)
            sep_ok += sup <= float(h.normal @ h.anchor) + h.slack + 1e-9
    elapsed = time.perf_counter() - start
    ok = (rt_ok == 50 and eval_ok == 50 and sup_ok == 100 and sep_ok >= 90
          and elapsed < 120.0)
    _report(verdict_line, 8, "reduction round trips", ok,
            f"OPT/VIOL {rt_ok}/50, epigraph EVAL {eval_ok}/50, support "
            f"{sup_ok}/100, SEP-from-OPT {sep_ok}/100, {elapsed:.1f}s")


def test_criterion_9_determinism(verdict_line, tmp_path):
    cfg = {
        "experiment": "determinism", "chain": "sep_from_mem",
        "body": {"kind": "random_hpolytope"}, "dims": [2, 3],
        "eps": [1e-4], "seeds": [1, 2, 3], "trials": 4,
    }
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(cfg), p1, timing=False)
    write_csv(run_experiment(cfg, jobs=4), p2, timing=False)
    identical = p1.read_bytes() == p2.read_bytes()
    _report(verdict_line, 9, "determinism", identical,
            "byte-identical CSV across re-run and across --jobs"
            if identical else "outputs differ between runs")
