import math

import numpy as np
import pytest

from orc.bodies import (Linear, MaxOfLinear, Quadratic, exact_eval,
                        exact_grad)
from orc.core import RandomStream
from orc.subgrad import (EstimatorParams, expected_flatness_defect,
                         sample_box_points, separate_convex_func)


def _exact(f):
    return lambda p, delta: exact_eval(f, p)


def test_linear_functions_recovered_exactly():
    a = np.array([0.7, -1.3, 0.2])
    f = Linear(a, 0.4)
    params = EstimatorParams(np.array([0.1, 0.2, -0.1]), r1=0.05,
                             eps=1e-6, L=2.0)
    for seed in range(20):
        g = separate_convex_func(_exact(f), params, RandomStream(seed))
        assert np.max(np.abs(g - a)) <= 1e-10


def test_quadratic_gradient_at_chord_midpoint():
    # for f = ||p||^2 each chord difference averages the gradient across
    # the chord, giving exactly 2*y_i in coordinate i
    f = Quadratic(np.eye(2))
    params = EstimatorParams(np.array([0.3, -0.2]), r1=0.1, eps=1e-8, L=2.0)
    for seed in range(20):
        rng = RandomStream(seed)
        y, _ = sample_box_points(params, rng.child(0))
        g = separate_convex_func(_exact(f), params, rng.child(0))
        np.testing.assert_allclose(g, 2.0 * y, atol=1e-10)


def test_max_of_linear_estimate_is_near_a_subgradient():
    f = MaxOfLinear(((np.array([1.0, 0.0]), 0.0),
                     (np.array([-1.0, 0.0]), 0.0)))
    x = np.array([0.5, 0.0])  # smooth region: gradient (1, 0)
    params = EstimatorParams(x, r1=0.05, eps=1e-9, L=1.0)
    g = separate_convex_func(_exact(f), params, RandomStream(7))
    np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-6)


def test_exactly_2n_evaluations():
    # the points are the (hi, lo) chord endpoints of the per-point
    # reference, bitwise and in order, one at a time and as one stack
    for n in (1, 2, 5, 11, 32):
        calls = []
        f = Quadratic(np.eye(n))
        oracle = lambda p, delta: (calls.append(p.copy()), exact_eval(f, p))[1]
        params = EstimatorParams(np.zeros(n) + 0.1, r1=0.05, eps=1e-6, L=2.0)
        separate_convex_func(oracle, params, RandomStream(1))
        assert len(calls) == 2 * n

        stacks = []
        stacked = lambda p, delta: exact_eval(f, p)
        stacked.rows = lambda P, delta: (stacks.append(P.copy()),
                                         np.array([exact_eval(f, p) for p in P]))[1]
        separate_convex_func(stacked, params, RandomStream(1))
        assert len(stacks) == 1 and stacks[0].shape == (2 * n, n)

        y, z = sample_box_points(params, RandomStream(1))
        for i in range(n):
            # the axis-i chord through z of the box y +- r2
            lo, hi = z.copy(), z.copy()
            lo[i], hi[i] = y[i] - params.r2, y[i] + params.r2
            for points in (calls, stacks[0]):
                assert np.array_equal(points[2 * i], hi)
                assert np.array_equal(points[2 * i + 1], lo)


def test_r2_default_formula():
    n, r1, eps, L = 4, 0.2, 1e-4, 3.0
    params = EstimatorParams(np.zeros(n), r1=r1, eps=eps, L=L)
    assert abs(params.r2 - math.sqrt(eps * r1 / (math.sqrt(n) * L))) < 1e-15


def test_param_validation():
    with pytest.raises(ValueError):
        EstimatorParams(np.zeros(2), r1=0.0, eps=1e-4, L=1.0)
    with pytest.raises(ValueError):
        EstimatorParams(np.zeros(2), r1=0.1, eps=0.0, L=1.0)  # needs r2
    with pytest.raises(ValueError):
        EstimatorParams(np.zeros(2), r1=0.1, eps=1e-4, L=1.0, r2=0.2)
    EstimatorParams(np.zeros(2), r1=0.1, eps=0.0, L=1.0, r2=1e-6)


def test_flatness_defect_within_theory_bound():
    # E ||grad f(z) - g(y)||_1 <= n^{3/2} * (r2/r1) * L for L-Lipschitz f
    rng = RandomStream(11)
    for n in (2, 4):
        A = 0.5 * np.eye(n)
        f = Quadratic(A)  # gradient p -> A p + A^T p = p, so L ~ radius
        r1, r2 = 0.1, 0.01
        L = float(np.linalg.norm(np.zeros(n)) + 2 * r1 + 2 * r2) + 1.0
        defect = expected_flatness_defect(f, np.zeros(n), r1, r2, 4000,
                                          rng.child(n))
        assert defect <= n ** 1.5 * (r2 / r1) * L * 1.05


def test_noise_amplification_bounded_by_eps_over_r2():
    f = Linear(np.array([1.0, -0.5]), 0.0)
    eps = 1e-5
    params = EstimatorParams(np.array([0.2, 0.1]), r1=0.05, eps=eps, L=2.0)
    gen = np.random.default_rng(13)
    noisy = lambda p, delta: exact_eval(f, p) + gen.uniform(-eps, eps)
    for seed in range(50):
        g = separate_convex_func(noisy, params, RandomStream(seed))
        assert np.max(np.abs(g - f.a)) <= eps / params.r2 + 1e-12


def test_subgradient_lower_bound_mostly_holds():
    # the estimate g should satisfy the anchored subgradient inequality
    # f(q) >= f(x) + <g, q - x> - zeta with zeta = 30*sqrt(L*eps/r1)*n^{5/4}
    # on all but a small fraction of random trials
    gen = np.random.default_rng(17)
    n, eps, L, r1 = 3, 1e-6, 2.0, 0.05
    A = np.eye(n)
    f = Quadratic(A)
    x = np.full(n, 0.2)
    params = EstimatorParams(x, r1=r1, eps=eps, L=L)
    zeta = 30.0 * math.sqrt(L * eps / r1) * n ** 1.25
    noisy = lambda p, delta: exact_eval(f, p) + gen.uniform(-eps, eps)
    failures = 0
    trials = 200
    fx = exact_eval(f, x)
    for seed in range(trials):
        g = separate_convex_func(noisy, params, RandomStream(seed))
        for _ in range(5):
            q = x + gen.uniform(-0.5, 0.5, n)
            if exact_eval(f, q) < fx + float(g @ (q - x)) - zeta:
                failures += 1
                break
    assert failures <= 0.15 * trials


def test_draw_order_is_documented_and_deterministic():
    params = EstimatorParams(np.zeros(3), r1=0.1, eps=1e-6, L=1.0)
    y1, z1 = sample_box_points(params, RandomStream(42))
    y2, z2 = sample_box_points(params, RandomStream(42))
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(z1, z2)
    assert np.max(np.abs(y1)) <= params.r1
    assert np.max(np.abs(z1 - y1)) <= params.r2
