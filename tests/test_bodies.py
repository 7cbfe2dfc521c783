import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, ExactValidity,
                        ExactViolation, HPolytope, Indicator, Linear,
                        MaxOfLinear, Quadratic, Simplex, UnsupportedVariant,
                        brute_force_lp, exact_eval, exact_grad,
                        exact_membership, exact_support, random_hpolytope,
                        separating_normal)
from orc.core import MembershipAnswer, RandomStream, ValidityAnswer
from orc.geometry import unit

INSIDE = MembershipAnswer.INSIDE_DILATED
OUTSIDE = MembershipAnswer.OUTSIDE_ERODED


def _triangle():
    # conv{(1,0), (0,1), (-1,-1)}
    A = np.array([[1.0, 1.0], [-2.0, 1.0], [1.0, -2.0]])
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    b = np.array([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(5.0),
                  1.0 / math.sqrt(5.0)])
    return HPolytope(A, b, interior_point=np.zeros(2))


def _cube(n):
    A = np.vstack([np.eye(n), -np.eye(n)])
    return HPolytope(A, np.ones(2 * n), interior_point=np.zeros(n))


# ---------------------------------------------------------------------------
# membership

def test_membership_ball_center_inside():
    assert exact_membership(Ball(np.zeros(2), 1.0), np.zeros(2), 0.01) is INSIDE


def test_membership_ball_outside():
    ans = exact_membership(Ball(np.zeros(2), 1.0), np.array([1.02, 0.0]), 0.01)
    assert ans is OUTSIDE


def test_membership_cube_near_corner():
    ans = exact_membership(_cube(2), np.array([0.999, 0.999]), 0.01)
    assert ans is INSIDE


def test_membership_valid_at_any_precision():
    ball = Ball(np.zeros(3), 1.0)
    gen = np.random.default_rng(5)
    for _ in range(200):
        y = gen.normal(size=3)
        expected = INSIDE if np.linalg.norm(y) <= 1.0 else OUTSIDE
        for delta in (1e-9, 0.01, 0.4):
            assert exact_membership(ball, y, delta) is expected


# ---------------------------------------------------------------------------
# support

def test_support_ball_is_boundary_point():
    c = unit(np.array([1.0, 2.0, -1.0]))
    val, arg = Ball(np.zeros(3), 1.0).support(c)
    assert abs(val - 1.0) < 1e-12
    np.testing.assert_allclose(arg, c, atol=1e-12)


def test_support_box_vertex():
    c = unit(np.ones(3))
    val, arg = BoxBody(np.zeros(3), 1.0).support(c)
    assert abs(val - math.sqrt(3.0)) < 1e-12
    np.testing.assert_allclose(arg, np.ones(3))


def test_support_triangle_vertex():
    val, arg = _triangle().support(np.array([0.0, 1.0]))
    assert abs(val - 1.0) < 1e-9
    np.testing.assert_allclose(arg, [0.0, 1.0], atol=1e-9)


def test_support_matches_brute_force_on_polytopes():
    gen = np.random.default_rng(7)
    for spec in (_triangle(), _cube(2), _cube(3)):
        for _ in range(1000):
            c = gen.normal(size=spec.dim)
            sup, _ = spec.support(c)
            lp_val, _ = brute_force_lp(spec, c)
            assert abs(sup - lp_val) <= 1e-9


def test_membership_consistent_with_support():
    gen = np.random.default_rng(8)
    for spec in (Ball(np.zeros(3), 1.0), BoxBody(np.zeros(3), 0.7),
                 Simplex(3, 1.0), _triangle()):
        for _ in range(300):
            y = gen.normal(size=spec.dim)
            c = unit(gen.normal(size=spec.dim))
            sup, _ = spec.support(c)
            if float(c @ y) > sup + 0.01:
                assert exact_membership(spec, y, 0.01) is OUTSIDE


# ---------------------------------------------------------------------------
# brute-force LP

def test_brute_force_cube():
    val, vtx = brute_force_lp(_cube(3), np.ones(3))
    assert abs(val - 3.0) < 1e-9
    np.testing.assert_allclose(vtx, np.ones(3), atol=1e-9)


def test_brute_force_simplex():
    A = np.array([[-1.0, 0.0], [0.0, -1.0],
                  [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]])
    b = np.array([0.0, 0.0, 1.0 / math.sqrt(2.0)])
    tri = HPolytope(A, b, interior_point=np.array([0.25, 0.25]))
    val, vtx = brute_force_lp(tri, np.array([2.0, 1.0]))
    assert abs(val - 2.0) < 1e-9
    np.testing.assert_allclose(vtx, [1.0, 0.0], atol=1e-9)


def test_brute_force_triangle_downward():
    val, vtx = brute_force_lp(_triangle(), np.array([0.0, -1.0]))
    assert abs(val - 1.0) < 1e-9
    np.testing.assert_allclose(vtx, [-1.0, -1.0], atol=1e-9)


# ---------------------------------------------------------------------------
# functions

def test_quadratic_eval_and_grad():
    f = Quadratic(np.eye(2))
    y = np.array([0.3, -0.4])
    assert abs(exact_eval(f, y) - 0.25) < 1e-15
    np.testing.assert_allclose(exact_grad(f, y).subgrad, [0.6, -0.8])


def test_max_of_linear_tie_breaks_to_lowest_index():
    f = MaxOfLinear(((np.array([1.0, 0.0]), 0.0),
                     (np.array([-1.0, 0.0]), 0.0)))
    y = np.array([0.0, 0.5])
    ans = exact_grad(f, y)
    assert ans.value == 0.0
    g = ans.subgrad
    np.testing.assert_array_equal(g, [1.0, 0.0])


def test_indicator_outside_is_infinite():
    f = Indicator(Ball(np.zeros(2), 1.0))
    assert exact_eval(f, np.array([2.0, 0.0])) == math.inf
    assert exact_eval(f, np.zeros(2)) == 0.0


def test_subgradient_inequality_holds_exactly():
    gen = np.random.default_rng(9)
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    funcs = [Linear(np.array([1.0, -2.0]), 0.3), Quadratic(A),
             MaxOfLinear(((np.array([1.0, 1.0]), 0.0),
                          (np.array([-1.0, 2.0]), 0.1)))]
    for f in funcs:
        for _ in range(1000):
            y = gen.normal(size=2)
            q = gen.normal(size=2)
            ans = exact_grad(f, y)
            lower = ans.value + float(ans.subgrad @ (q - y))
            assert exact_eval(f, q) >= lower - 1e-12


# ---------------------------------------------------------------------------
# exact set oracles

@pytest.mark.parametrize("spec", [
    Ball(np.zeros(3), 1.2), BoxBody(np.zeros(3), 0.8), Simplex(3, 1.5),
    Ellipsoid(np.zeros(3), np.diag([1.0, 2.0, 0.5]))])
def test_exact_separation_halfspace_contains_body(spec):
    sep = ExactSeparation(spec)
    gen = np.random.default_rng(10)
    for _ in range(300):
        y = gen.normal(size=3) * 2.0
        ans = sep(y, 1e-6)
        if spec.contains(y):
            assert ans.halfspace is None
        else:
            h = ans.halfspace
            sup, _ = spec.support(h.normal)
            assert sup <= float(h.normal @ y) + 1e-9


def test_separating_normal_is_unit():
    spec = Simplex(4, 1.0)
    gen = np.random.default_rng(11)
    for _ in range(100):
        y = gen.normal(size=4)
        if not spec.contains(y):
            assert abs(np.linalg.norm(separating_normal(spec, y)) - 1.0) < 1e-12


def test_exact_optimization_matches_support():
    spec = BoxBody(np.zeros(2), 1.0)
    opt = ExactOptimization(spec)
    c = np.array([0.6, 0.8])
    y = opt(c, 1e-6).maximizer
    assert abs(float(c @ y) - 1.4) < 1e-12


def test_exact_optimization_zero_direction():
    spec = Ball(np.zeros(2), 1.0)
    y = ExactOptimization(spec)(np.zeros(2), 1e-6).maximizer
    assert spec.contains(y)


def test_exact_violation_and_validity_threshold():
    spec = Ball(np.zeros(2), 1.0)
    viol, val = ExactViolation(spec), ExactValidity(spec)
    c = np.array([1.0, 0.0])
    assert viol(c, 0.9, 1e-6).witness is not None
    assert viol(c, 1.1, 1e-6).witness is None
    assert val(c, 0.9, 1e-6) is ValidityAnswer.SOME_ABOVE
    assert val(c, 1.1, 1e-6) is ValidityAnswer.ALL_BELOW


def _stack_specs(n, gen):
    return [Ball(gen.normal(size=n), 1.3), BoxBody(gen.normal(size=n), 0.7),
            Simplex(n, 2.0),
            Ellipsoid(gen.normal(size=n), np.diag(gen.uniform(0.5, 2.0, size=n))),
            random_hpolytope(n, gen)]


def _direction_stack(n, gen):
    """Directions of many scales, with a zero row and a row whose every
    entry is nonpositive (the simplex's zero-support case)."""
    C = gen.normal(size=(200, n)) * gen.uniform(1e-3, 10.0, size=(200, 1))
    C[7] = 0.0
    C[11] = -np.abs(C[11])
    return C


def _reference_opt(spec, c):
    """One OPT query answered from `support` alone: the body's center
    for c = 0, where every point maximizes."""
    return spec.geometry.center if not np.any(c) else spec.support(c)[1]


def _reference_val(spec, c, gamma):
    """One VAL query answered from `support` alone: True for SOME_ABOVE."""
    return (0.0 if not np.any(c) else spec.support(c)[0]) >= gamma


@pytest.mark.parametrize("n", [2, 3, 6])
def test_stack_forms_match_per_row_calls_bitwise(n):
    gen = np.random.default_rng(40 + n)
    for spec in _stack_specs(n, gen):
        C = _direction_stack(n, gen)
        gammas = gen.normal(size=C.shape[0])
        opt, val = ExactOptimization(spec), ExactValidity(spec)
        np.testing.assert_array_equal(
            opt.rows(C, 1e-6), np.array([opt(c, 1e-6).maximizer for c in C]))
        np.testing.assert_array_equal(
            val.rows(C, gammas, 1e-6),
            [val(c, g, 1e-6) is ValidityAnswer.SOME_ABOVE for c, g in zip(C, gammas)])
        # a single call is a stack of one, so also check both against
        # the per-query answers built from `support` in this test
        np.testing.assert_array_equal(
            opt.rows(C, 1e-6), np.array([_reference_opt(spec, c) for c in C]))
        np.testing.assert_array_equal(
            val.rows(C, gammas, 1e-6),
            [_reference_val(spec, c, g) for c, g in zip(C, gammas)])
        # the ball's support has no maximizer at c = 0, row or stack
        nonzero = C[C.any(axis=1)] if isinstance(spec, Ball) else C
        values, args = spec.support_rows(nonzero)
        expected = [spec.support(c) for c in nonzero]
        np.testing.assert_array_equal(values, [v for v, _ in expected])
        np.testing.assert_array_equal(args, np.array([a for _, a in expected]))


def test_ball_support_rows_refuses_a_zero_row_like_support():
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        ball.support(np.zeros(2))
    with pytest.raises(ValueError):
        ball.support_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_support_unsupported_for_intersection():
    from orc.bodies import Intersection
    inter = Intersection((Ball(np.zeros(2), 1.0), BoxBody(np.zeros(2), 0.9)),
                         np.zeros(2), 0.5)
    with pytest.raises(UnsupportedVariant):
        exact_support(inter, np.array([1.0, 0.0]))


def test_random_hpolytope_geometry_certified():
    for seed in range(5):
        for n in (2, 5, 10):
            P = random_hpolytope(n, RandomStream(seed).child("poly"))
            g = P.geometry
            assert g.r > 0 and g.R >= g.r
            # inner ball points are members; far points are not
            gen = np.random.default_rng(seed)
            for _ in range(50):
                u = unit(gen.normal(size=n))
                assert P.contains(g.center + 0.99 * g.r * u)
                assert not P.contains(g.center + 1.01 * g.R * u)
