import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from orc import bodies
from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, ExactValidity,
                        ExactViolation, HPolytope, Indicator, Linear,
                        MaxOfLinear, Quadratic, Simplex, UnsupportedVariant,
                        brute_force_lp, exact_eval, exact_grad,
                        exact_membership, exact_support, random_hpolytope)
from orc.core import MembershipAnswer, RandomStream, ValidityAnswer
from orc.geometry import HalfSpace, unit

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


def _separation_bodies(n):
    gen = np.random.default_rng(n)
    Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    shifted = gen.uniform(-0.3, 0.3, size=n)
    return [Ball(shifted, 1.2), BoxBody(shifted, 0.8), Simplex(n, 1.5),
            random_hpolytope(n, RandomStream(n).child("poly")),
            Ellipsoid(shifted, (Q * gen.uniform(0.3, 2.0, size=n)) @ Q.T)]


def _ulp_neighbours(x0, t, u):
    """Points one ulp on either side of the boundary point x0 + t*u: the
    point itself, every coordinate one ulp outward or inward along u,
    and the ray parameter one ulp below or above t."""
    b = x0 + t * u
    return [b, np.nextafter(b, b + u), np.nextafter(b, b - u),
            x0 + np.nextafter(t, 0.0) * u, x0 + np.nextafter(t, np.inf) * u]


@pytest.mark.parametrize("n", [2, 3, 6])
def test_exact_separation_inside_exactly_when_membership_is(n):
    gen = np.random.default_rng(20 + n)
    for spec in _separation_bodies(n):
        sep, mem = ExactSeparation(spec), ExactMembership(spec)
        x0 = spec.geometry.center
        points = []
        for _ in range(60):
            u = unit(gen.normal(size=n))
            points += _ulp_neighbours(x0, spec.radial_scale(u), u)
        if isinstance(spec, BoxBody):
            # a coordinate on the face and one ulp either side of it
            for face in (spec.center[0] + spec.radius, spec.center[0] - spec.radius):
                for value in (face, np.nextafter(face, np.inf), np.nextafter(face, -np.inf)):
                    p = spec.center.copy()
                    p[0] = value
                    points.append(p)
        if isinstance(spec, Simplex):
            # a vertex, the sum one ulp past the scale, and a coordinate
            # at signed zeros, the least subnormal and below zero, by
            # more or less than a normal whose squared length underflows
            vertex = np.zeros(n)
            vertex[0] = spec.scale
            points += [vertex, np.nextafter(vertex, 2.0 * vertex)]
            for zero in (0.0, -0.0, 5e-324, -5e-324, -1e-160, -1e-150):
                p = np.full(n, spec.scale / (2 * n))
                p[-1] = zero
                points.append(p)
        answers = []
        for p in points:
            inside = mem(p, 0.01).inside
            h = sep(p, 0.01).halfspace
            assert (h is None) == inside, (type(spec).__name__, p)
            if h is not None:
                # also at a point outside by less than about 1e-154
                assert abs(float(np.linalg.norm(h.normal)) - 1.0) <= 1e-12
            answers.append(inside)
        assert any(answers) and not all(answers), type(spec).__name__


def _reference_unit(v):
    nrm = float(np.linalg.norm(v))
    if nrm == 0.0:
        raise ZeroDivisionError("zero-length normal")
    return v / nrm


def _reference_project_simplex(y, s):
    p = np.maximum(y, 0.0)
    if np.sum(p) <= s:
        return p
    u_srt = np.sort(y)[::-1]
    css = np.cumsum(u_srt) - s
    ks = np.arange(1, y.size + 1)
    k = int(ks[u_srt - css / ks > 0][-1])
    return np.maximum(y - css[k - 1] / k, 0.0)


def _reference_normal(spec, y):
    """The separating normal by the per-body formulas written out, for y
    outside the body."""
    if isinstance(spec, Ball):
        return _reference_unit(y - spec.center)
    if isinstance(spec, BoxBody):
        q = y - spec.center
        return _reference_unit(q - np.clip(q, -spec.radius, spec.radius))
    if isinstance(spec, Simplex):
        return _reference_unit(y - _reference_project_simplex(y, spec.scale))
    if isinstance(spec, HPolytope):
        return spec.A[int(np.argmax(spec.A @ y - spec.b))]
    if isinstance(spec, Ellipsoid):
        return _reference_unit(spec._inv @ (y - spec.center))
    part = next(p for p in spec.parts if not p.contains(y))
    return _reference_normal(part, y)


@pytest.mark.parametrize("n", [2, 3, 6, 16])
def test_exact_separation_normal_matches_reference_formulas_bitwise(n):
    gen = np.random.default_rng(30 + n)
    for spec in _separation_bodies(n):
        sep = ExactSeparation(spec)

        def separated(y):
            h = sep(y, 0.01).halfspace
            assert (h is None) == spec.contains(y)
            if h is None:
                return False
            assert h.normal.tobytes() == _reference_normal(spec, y).tobytes()
            assert h.anchor.tobytes() == y.tobytes() and h.slack == 0.0
            return True

        outside = sum(separated(y) for scale in (0.5, 1.0, 3.0)
                      for y in scale * gen.normal(size=(100, n)))
        assert outside >= 50, type(spec).__name__
        # where a late optimization run's centres sit: near a vertex (a
        # maximizer of the support function) and just past a face (the
        # boundary point on a ray from the centre, moved out along it)
        x0 = spec.geometry.center
        near = 0
        for offset in (1e-4, 1e-6):
            for u in gen.normal(size=(20, n)):
                u = unit(u)
                vertex = spec.support(u)[1]
                near += separated(vertex + offset * gen.normal(size=n))
                assert separated(x0 + (1.0 + offset) * spec.radial_scale(u) * u)
        assert near >= 10, type(spec).__name__


def test_simplex_separates_points_past_the_face_by_less_than_the_projection_resolves():
    # y >= 0 one ulp past the face sum x = s, where y - proj(y) rounds
    # to zero: the normal is the face's own, and the cut is valid
    spec = Simplex(3, 1.5)
    gen = np.random.default_rng(0)
    hits = 0
    for _ in range(200):
        y = np.nextafter(gen.dirichlet(np.ones(3)) * spec.scale, 2.0)
        if spec.contains(y) or (y - _reference_project_simplex(y, spec.scale)).any():
            continue
        hits += 1
        normal = spec.separate(y)
        np.testing.assert_allclose(normal, np.full(3, 1.0 / math.sqrt(3.0)), rtol=1e-15)
        assert spec.support(normal)[0] <= float(normal @ y) + 1e-15
    assert hits >= 3


@pytest.mark.parametrize("level", [1e-12, 1e-10, 1e-9])
def test_simplex_cut_does_not_slice_the_body_just_past_the_face(level):
    # y = p + theta (1, 1, 1), p on the face sum x = s, lies theta past
    # it; y - proj(y) = theta (1, 1, 1) is computed with cancellation
    # below sqrt(eps) max(y), and the cut must still keep all of K
    spec = Simplex(3, 1.5)
    gen = np.random.default_rng(0)
    for _ in range(300):
        p = gen.dirichlet(np.ones(3)) * spec.scale
        y = p + level * p.max()
        normal = spec.separate(y)
        assert spec.support(normal)[0] <= float(normal @ y)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("spec", [
    Ball(np.array([0.1, -0.2]), 1.0), BoxBody(np.array([0.1, -0.2]), 0.5),
    Ellipsoid(np.array([0.1, -0.2]), np.array([[2.0, 0.3], [0.3, 0.5]])), Simplex(2)])
def test_exact_oracles_answer_points_far_outside(spec):
    # v.v of the normal's source overflows at 1e200; the simplex's
    # sorted-threshold conditions all round to false from 1e16 on
    sep = ExactSeparation(spec)
    for y in ([1e200, 3e200], [-1e200, 5e-324], [1e16, 0.5], [1e17, -1.0], [-1e17, 2e17]):
        y = np.array(y)
        assert exact_membership(spec, y, 0.01) is OUTSIDE
        h = sep(y, 0.01).halfspace
        assert abs(float(np.linalg.norm(h.normal)) - 1.0) <= 1e-12
        HalfSpace(h.normal, h.anchor, h.slack)
        assert spec.support(h.normal)[0] <= float(h.normal @ y)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("make, y", [
    (lambda: Ball(np.array([-1e308, 0.0]), 1.0), [1e308, 0.0]),
    (lambda: BoxBody(np.array([-1e308, 0.0]), 1.0), [1e308, 0.0]),
    (lambda: Ellipsoid(np.zeros(2), np.diag([0.01, 0.04])), [1e307, 0.0]),
    (lambda: Ellipsoid(np.array([-1e308, 1.0]), np.array([[0.01, 0.003], [0.003, 0.04]])),
     [1e308, -1e308])], ids=["ball", "box", "ellipsoid", "far_ellipsoid"])
def test_exact_separation_where_the_normals_source_overflows(make, y):
    # y - center, or M (y - center), is infinite at these finite points
    spec = make()
    y = np.array(y)
    assert exact_membership(spec, y, 0.01) is OUTSIDE
    h = ExactSeparation(spec)(y, 0.01).halfspace
    HalfSpace(h.normal, h.anchor, h.slack)
    if spec.dim == 2 and y[1] == 0.0:
        assert h.normal.tolist() == [1.0, 0.0]
    assert spec.support(h.normal)[0] <= float(h.normal @ y)


def test_simplex_separation_is_sound_a_few_ulps_past_the_face():
    spec = Simplex(2, 1.5)
    gen = np.random.default_rng(2)
    unsound = 0
    for _ in range(200):
        u = unit(gen.normal(size=2))
        y = np.nextafter(spec.geometry.center + spec.radial_scale(u) * u, 2.0)
        h = ExactSeparation(spec)(y, 0.01).halfspace
        if h is not None:
            unsound += spec.support(h.normal)[0] > float(h.normal @ y) + 1e-9
    assert unsound == 0


def _simplex_boundary_rows(n, scale, gen):
    """Rows on and just off the simplex's boundary: entries -0.0 and
    exactly 0, rows summing exactly to `scale` (dyadic parts of it) and
    rows whose sum is one ulp past it."""
    past = np.nextafter(scale, np.inf)
    rows = []
    for _ in range(40):
        parts = gen.multinomial(64, np.full(n, 1.0 / n)) * (scale / 64)
        rows.append(parts)
        nudged = parts.copy()
        nudged[np.argmax(parts)] += past - scale
        rows.append(nudged)
        signed = np.where(parts == 0.0, -0.0, parts)
        rows.append(signed)
        rows.append(np.where(gen.random(n) < 0.5, -0.0, 0.5 * parts))
    for i in range(n):
        for top in (scale, past):
            row = np.full(n, -0.0)
            row[i] = top
            rows.append(row)
            rows.append(np.abs(row))
    rows.append(np.full(n, -0.0))
    rows.append(np.zeros(n))
    return np.array(rows)


@pytest.mark.parametrize("n", [1, 3, 8, 16, 32])
@pytest.mark.parametrize("scale", [1.0, 1.5, 0.3])
def test_simplex_contains_rows_decides_every_row_as_contains(n, scale):
    spec = Simplex(n, scale)
    P = _simplex_boundary_rows(n, scale, np.random.default_rng(n))
    sums = np.add.reduce(P, axis=1)
    # the stack reaches both sides of the face sum x = scale, and -0.0
    assert (sums == scale).any() and (sums == np.nextafter(scale, np.inf)).any()
    assert np.signbit(P[P == 0.0]).any() and not np.signbit(P[P == 0.0]).all()
    rows = spec.contains_rows(P)
    assert rows.tolist() == [spec.contains(p) for p in P]
    assert 0 < rows.sum() < len(rows)


ASK = {
    "SEP": lambda spec, y: ExactSeparation(spec)(y, 0.01),
    "MEM": lambda spec, y: ExactMembership(spec)(y, 0.01),
    "exact_membership": lambda spec, y: exact_membership(spec, y, 0.01),
    "OPT": lambda spec, y: ExactOptimization(spec)(y, 0.01),
    "VIOL": lambda spec, y: ExactViolation(spec)(y, 0.0, 0.01),
    "VAL": lambda spec, y: ExactValidity(spec)(y, 0.0, 0.01),
    "exact_support": exact_support,
}


@pytest.mark.parametrize("kind", sorted(ASK))
def test_exact_oracles_refuse_a_query_of_another_dimension(kind):
    for spec in _separation_bodies(3):
        ASK[kind](spec, np.full(3, 0.1))
        for m in (1, 2, 4):
            with pytest.raises(ValueError, match="expected a vector of dimension 3"):
                ASK[kind](spec, np.full(m, 0.1))


def test_separating_normal_is_unit():
    spec = Simplex(4, 1.0)
    gen = np.random.default_rng(11)
    for _ in range(100):
        y = gen.normal(size=4)
        if not spec.contains(y):
            assert abs(np.linalg.norm(spec.separate(y)) - 1.0) < 1e-12


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


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_support_values_are_support_rows_values_bitwise(n):
    gen = np.random.default_rng(70 + n)
    for spec in _stack_specs(n, gen):
        for k in range(1, 9):
            C = gen.normal(size=(k, n)) * gen.uniform(1e-3, 10.0, size=(k, 1))
            np.testing.assert_array_equal(spec.support_values(C), spec.support_rows(C)[0])


@pytest.mark.parametrize("n", [2, 3, 16])
def test_support_values_of_a_zero_row_are_zero(n):
    # the ball's included, whose support_rows refuses a zero row
    gen = np.random.default_rng(90 + n)
    for spec in _stack_specs(n, gen):
        C = gen.normal(size=(5, n))
        C[[0, 3]] = 0.0
        values = spec.support_values(C)
        assert values[0] == 0.0 and values[3] == 0.0
        np.testing.assert_array_equal(values[[1, 2, 4]], spec.support_rows(C[[1, 2, 4]])[0])
        assert ExactValidity(spec)(np.zeros(n), 0.0, 0.01) is ValidityAnswer.SOME_ABOVE
        assert ExactValidity(spec)(np.zeros(n), 1e-300, 0.01) is ValidityAnswer.ALL_BELOW


@pytest.mark.parametrize("n", [2, 6])
def test_validity_reads_some_above_at_the_support_value(n):
    gen = np.random.default_rng(110 + n)
    for spec in _stack_specs(n, gen):
        val = ExactValidity(spec)
        for c in gen.normal(size=(8, n)):
            h = float(spec.support_values(c[None, :])[0])
            assert val(c, h, 0.01) is ValidityAnswer.SOME_ABOVE
            assert val(c, np.nextafter(h, math.inf), 0.01) is ValidityAnswer.ALL_BELOW


def _without_support_rows(spec):
    """`spec` in a subclass whose `support_rows` raises."""

    class NoMaximizers(type(spec)):
        def support_rows(self, C):
            raise AssertionError("VAL asked for maximizers")

    bare = object.__new__(NoMaximizers)
    bare.__dict__.update(spec.__dict__)
    return bare


def test_validity_never_builds_maximizers():
    gen = np.random.default_rng(130)
    for spec in _stack_specs(4, gen):
        val = ExactValidity(_without_support_rows(spec))
        C = _direction_stack(4, gen)
        gammas = gen.normal(size=C.shape[0])
        np.testing.assert_array_equal(val.rows(C, gammas, 0.01),
                                      ExactValidity(spec).rows(C, gammas, 0.01))
        assert val(C[0], 0.0, 0.01) is ExactValidity(spec)(C[0], 0.0, 0.01)
        with pytest.raises(AssertionError, match="maximizers"):
            ExactOptimization(_without_support_rows(spec))(C[0], 0.01)


def test_ball_support_rows_refuses_a_zero_row_like_support():
    ball = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        ball.support(np.zeros(2))
    with pytest.raises(ValueError):
        ball.support_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_ball_support_of_a_direction_whose_square_underflows():
    # c.c underflows to 0 at c = (1e-170, 0): the maximizer is still
    # center + radius * unit(c), for a single call and a stack alike
    ball = Ball(np.array([0.5, 0.0]), 1.0)
    c = np.array([1e-170, 0.0])
    assert ball.support(c)[0] == 5e-171
    np.testing.assert_array_equal(ball.support(c)[1], [1.5, 0.0])
    np.testing.assert_array_equal(ExactOptimization(ball)(c, 0.01).maximizer, [1.5, 0.0])
    _, args = ball.support_rows(np.array([[0.0, 2.0], [1e-170, 0.0]]))
    np.testing.assert_array_equal(args, [[0.5, 1.0], [1.5, 0.0]])


def test_a_body_without_a_support_function_refuses_support_queries():
    class Bare(bodies.BodySpec):
        geometry = Ball(np.zeros(2), 1.0).geometry

    for ask in (lambda b: exact_support(b, np.array([1.0, 0.0])),
                lambda b: ExactOptimization(b)(np.array([1.0, 0.0]), 0.01),
                lambda b: ExactValidity(b)(np.array([1.0, 0.0]), 0.5, 0.01),
                lambda b: b.contains(np.zeros(2))):
        with pytest.raises(UnsupportedVariant):
            ask(Bare())


@pytest.mark.parametrize("shape", [np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0, 4.0]),
                                   np.ones(3), np.ones((3, 2))])
def test_ellipsoid_refuses_a_shape_that_is_not_n_by_n(shape):
    # a 2 x 2 shape around a centre in R^3 used to construct, and its
    # containment test then failed inside numpy's matmul
    with pytest.raises(ValueError, match="shape must be 3 x 3"):
        Ellipsoid(np.zeros(3), shape)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hpolytope_rejects_non_finite_facets(bad):
    A = np.vstack([np.eye(2), -np.eye(2)])
    A[1, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        HPolytope(A, np.ones(4), np.zeros(2))
    with pytest.raises(ValueError, match="must be finite"):
        HPolytope(np.vstack([np.eye(2), -np.eye(2)]), [1.0, bad, 1.0, 1.0], np.zeros(2))


def test_hpolytope_refuses_an_interior_point_of_another_dimension():
    # it used to fail inside numpy's matmul
    with pytest.raises(ValueError, match="expected a vector of dimension 2"):
        HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), np.zeros(3))


@pytest.mark.parametrize("dim", [0, -1])
def test_simplex_refuses_a_dimension_below_one(dim):
    # Simplex(0) used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        Simplex(dim)


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


# ---------------------------------------------------------------------------
# vertex enumeration

def _per_subset_vertices(A, b):
    """The vertices by the plain per-subset loop: one det, one solve and
    one A @ v for each n-subset of the facets."""
    m, n = A.shape
    out = []
    for idx in itertools.combinations(range(m), n):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + 1e-9):
            out.append(v)
    if not out:
        return np.zeros((0, n))
    return np.unique(np.round(np.array(out), 12), axis=0)


def _enumeration_polytopes():
    """(A, b) of bounded, unbounded, k < n, k >= n and degenerate cases,
    k = m - n."""
    for n in range(1, 9):
        yield random_hpolytope(n, RandomStream(n).child("poly"))
    for seed in (1, 2):
        yield random_hpolytope(16, RandomStream(seed).child("poly"))
    for n in (2, 5, 8):
        gen = np.random.default_rng(n)
        yield random_hpolytope(n, gen, jitter=50.0)
        yield random_hpolytope(n, gen, extra_facets=0)
        yield random_hpolytope(n, gen, extra_facets=8)
    for n in range(1, 5):
        box = np.vstack([np.eye(n), -np.eye(n)])
        yield HPolytope(box, np.ones(2 * n), np.zeros(n))
        yield HPolytope(np.vstack([box, box[:1]]), np.ones(2 * n + 1), np.zeros(n))
    # k < n with exactly singular subsets: {x >= -1, sum x <= 1,
    # x_1 <= 1, x_2 <= 1}, and a polytope with a repeated facet
    for n in (4, 6):
        A = np.vstack([-np.eye(n), np.ones((1, n)), np.eye(n)[:2]])
        yield HPolytope(A, np.ones(n + 3), np.zeros(n))
        # the redundant facet sum x >= -n - 1e-7 meets n - 1 of the
        # facets x_i >= -1 at points 1e-7 outside the last: rejected,
        # as the feasibility tolerance is 1e-9
        A = np.vstack([-np.eye(n), np.ones((1, n)), -np.ones((1, n))])
        yield HPolytope(A, np.append(np.ones(n + 1), n + 1e-7), np.zeros(n))
        P = random_hpolytope(n, RandomStream(n).child("poly"))
        yield HPolytope(np.vstack([P.A, P.A[:1]]), np.append(P.b, P.b[0]), np.zeros(n))
    yield _needle_polytope()


def _needle_polytope():
    """A k < n polytope drawn out along x_1, so that the product of A's
    singular values is about 1e-10: some screened subsets' bounds on
    |det A_S| fall inside the rounding margin, among them regular and
    singular ones."""
    P = random_hpolytope(5, RandomStream(5).child("poly"))
    A = P.A.copy()
    A[:, 0] *= 5e-12
    return HPolytope(A, P.b, np.zeros(5))


def test_vertex_enumeration_is_bitwise_the_per_subset_loop():
    cases = screened = 0
    for P in _enumeration_polytopes():
        m, n = P.A.shape
        expected = _per_subset_vertices(P.A, P.b)
        assert np.array_equal(P.vertices, expected), (m, n)
        assert np.array_equal(bodies._enumerate_vertices(P.A, P.b), expected), (m, n)
        cases += 1
        screened += 0 < m - n < n
    assert cases == 34 and screened >= 17


def _screened_candidates(A, b):
    """The n-subsets the documented screen passes, each with its bound on
    |det A_S|: from the SVD A = U diag(s) V^T and the left null space
    basis N (U's last k columns), the complement T's slack solves
    N_T^T s_T = N^T b; a subset is dropped only when |det N_T| >= 1e-8 and
    min s_T is below -(1e-9 + 1e-3 (max|b| + max|s_T|)).  A kept subset's
    bound is (|det N_T| s_n - 64 n^2 eps s_1) prod_{i<n} s_i, or 0 when
    |det N_T| < 1e-8."""
    m, n = A.shape
    U, sv, _ = np.linalg.svd(A, full_matrices=True)
    N = U[:, n:]
    out = []
    for T in itertools.combinations(range(m), m - n):
        NtT = N[list(T)].T
        sigma = abs(np.linalg.det(NtT))
        bound = 0.0
        if sigma >= 1e-8:
            s = np.linalg.solve(NtT, N.T @ b)
            if s.min() < -(1e-9 + 1e-3 * (np.abs(b).max() + np.abs(s).max())):
                continue
            bound = (sigma * sv[-1] - 64 * n * n * np.finfo(float).eps * sv[0]) * np.prod(sv[:-1])
        out.append(([i for i in range(m) if i not in T], bound))
    return out


def test_vertex_enumeration_solves_only_the_screened_candidates(monkeypatch):
    P = random_hpolytope(16, RandomStream(3).child("poly"))
    A, b = P.A, P.b
    candidates = [S for S, _ in _screened_candidates(A, b)
                  if abs(np.linalg.det(A[S])) >= 1e-12]
    solve, systems = np.linalg.solve, []

    def counting_solve(a, rhs):
        if a.shape[-1] == 16:
            systems.append(a.reshape(-1, 16, 16).shape[0])
        return solve(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    vertices = bodies._enumerate_vertices(A, b)
    monkeypatch.undo()
    assert np.array_equal(vertices, P.vertices)
    assert sum(systems) == len(candidates)
    # far below the math.comb(20, 16) = 4845 subsets, and above the
    # vertex count, since every vertex is some candidate's solution
    assert vertices.shape[0] <= len(candidates) < 4845 // 4


def _counting_det(monkeypatch, sides):
    """Patch np.linalg.det to record, per call, how many of its matrices
    are n x n for an n in `sides`; the list of counts."""
    det, rows = np.linalg.det, []

    def counting_det(a):
        if a.shape[-1] in sides:
            rows.append(a.reshape(-1, *a.shape[-2:]).shape[0])
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    return rows


@pytest.mark.parametrize("make", [
    lambda: random_hpolytope(16, RandomStream(3).child("poly")), _needle_polytope])
def test_vertex_enumeration_asks_det_only_for_bounds_inside_the_margin(monkeypatch, make):
    P = make()
    A, b = P.A, P.b
    candidates = _screened_candidates(A, b)
    unsure = [S for S, bound in candidates if not bound >= 1e-12]
    rows = _counting_det(monkeypatch, {A.shape[1]})
    vertices = bodies._enumerate_vertices(A, b)
    monkeypatch.undo()
    assert np.array_equal(vertices, P.vertices)
    assert sum(rows) == len(unsure)
    # every bound that clears the margin is one the det would clear
    assert all(abs(np.linalg.det(A[S])) >= 1e-12 for S, bound in candidates if bound >= 1e-12)
    if make is _needle_polytope:
        # the fallback decides both ways
        dets = [abs(np.linalg.det(A[S])) for S in unsure]
        assert min(dets) < 1e-12 <= max(dets)


def test_sep_mem_pool_polytopes_take_one_lu_per_candidate(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    workloads = importlib.import_module("perfbench.workloads")
    # the pool's polytopes have n = 8, 16 and 32 (their N_T are 4 x 4)
    rows = _counting_det(monkeypatch, {8, 16, 32})
    workloads.WORKLOADS["sep_mem"].build(1)
    monkeypatch.undo()
    assert sum(rows) <= 1
