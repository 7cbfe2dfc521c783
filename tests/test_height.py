import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, Intersection,
                        Simplex, exact_membership)
from orc.core import MEM, ProblemGeometry, QueryLedger, wrap_with_ledger
from orc.height import HeightOracle

GEOM2 = ProblemGeometry(2, 1.0, 1.0)


def _height(spec, x, bin_tol=1e-9, geometry=None):
    return HeightOracle(ExactMembership(spec), geometry or GEOM2,
                        np.asarray(x, dtype=float), bin_tol, 1e-12)


def test_alpha_ball_from_origin():
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    assert abs(h.alpha_x(np.zeros(2)) - 2.0) <= 2e-9


def test_alpha_ball_offset_base_point():
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    expected = 2.0 * math.sqrt(0.75)
    assert abs(h.alpha_x(np.array([0.0, 0.5])) - expected) <= 2e-9


def test_height_ball_origin():
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    assert abs(h.as_eval()(np.zeros(2), 0.1) - (-1.0)) <= 1e-8


def test_height_box_corner_direction():
    # the height is that of the body normalized by its geometry: a box
    # of radius 1 off the origin, with R = sqrt(2), becomes a box of
    # radius 1/sqrt(2) about the origin, whose corners lie on the unit
    # sphere
    spec = BoxBody(np.array([2.0, -1.0]), 1.0)
    assert spec.geometry.R == math.sqrt(2.0)
    h = _height(spec, [0.5, 0.5], geometry=spec.geometry)
    assert abs(h.alpha_x(np.zeros(2)) - math.sqrt(2.0)) <= 2e-9
    assert abs(h.as_eval()(np.zeros(2), 0.1) - (-1.0)) <= 1e-8


def test_height_is_convex_along_segments():
    gen = np.random.default_rng(3)
    spec = Simplex(3, 1.0)
    h = _height(spec, [0.4, 0.1, 0.2], bin_tol=1e-10,
                geometry=spec.geometry)
    h_x = lambda d: h.as_eval()(d, 0.1)
    base = np.zeros(3)  # the center, normalized
    for _ in range(60):
        d0 = base + 0.05 * gen.normal(size=3)
        d1 = base + 0.05 * gen.normal(size=3)
        lam = gen.uniform()
        mid = lam * d0 + (1.0 - lam) * d1
        bound = lam * h_x(d0) + (1.0 - lam) * h_x(d1)
        # convexity up to twice the bisection resolution
        assert h_x(mid) <= bound + 4e-10 * np.linalg.norm(h.x)


def test_height_is_lipschitz_near_origin():
    # Lipschitz constant ||x||*(||x|| + R)/r on B(0, r/2), checked on samples
    gen = np.random.default_rng(4)
    spec = Ball(np.zeros(2), 1.0)
    x = np.array([0.8, -0.3])
    h_x = _height(spec, x, bin_tol=1e-10).as_eval()
    L = np.linalg.norm(x) * (np.linalg.norm(x) + 1.0) / 1.0
    for _ in range(100):
        d0 = gen.uniform(-0.4, 0.4, size=2)
        d1 = gen.uniform(-0.4, 0.4, size=2)
        gap = abs(h_x(d0, 0.1) - h_x(d1, 0.1))
        assert gap <= L * np.linalg.norm(d0 - d1) + 1e-8


def test_iteration_count_and_mem_calls_match():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    h = HeightOracle(mem, GEOM2, np.array([0.5, 0.0]), 1e-6, 0.01)
    d = np.array([0.1, 0.1])
    _, iters = h.iterations_for(d)
    assert iters == math.ceil(math.log2(
        (1.0 + np.linalg.norm(d) + 0.01) / 0.5 / 1e-6))
    h.alpha_x(d)
    assert ledger.count(MEM) == iters


def _stack(spec, gen, k):
    """k points near the center of the normalized body."""
    return 0.05 * gen.normal(size=(k, spec.dim))


def _reference_height(spec, h, d):
    """h_x(d) by a plain bisection loop over exact containment, with the
    bracket and the map into the body's frame written out: independent
    of `kernels.bisect_rows`."""
    g = h.geometry
    hi = (1.0 + float(np.linalg.norm(d)) + h.mem_delta) / h.x_norm
    p, x = g.center + g.R * d, g.R * h.x
    lo = 0.0
    for _ in range(max(1, math.ceil(math.log2(hi / h.bin_tol)))):
        mid = 0.5 * (lo + hi)
        if spec.contains(p + mid * x):
            lo = mid
        else:
            hi = mid
    return -0.5 * (lo + hi) * h.x_norm


def test_stack_heights_equal_per_row_heights():
    # bodies off the origin with R != 1, so the map into the body's
    # frame runs
    gen = np.random.default_rng(8)
    for spec in (Simplex(4, 1.0), BoxBody(np.array([1.0, -2.0, 0.5, 3.0]), 0.7)):
        assert spec.geometry.R != 1.0 and spec.geometry.center.any()
        h = _height(spec, [0.4, -0.1, 0.2, 0.3], geometry=spec.geometry)
        D = _stack(spec, gen, 8)
        h_x = h.as_eval()
        heights = h_x.rows(D, 0.1)
        np.testing.assert_array_equal(heights, [h_x(d, 0.1) for d in D])
        np.testing.assert_array_equal(heights, [-h.alpha_x(d) * h.x_norm for d in D])
        # a single height is a stack of one, so also check against a
        # loop written here, over MEM's stack form and over a plain MEM
        reference = [_reference_height(spec, h, d) for d in D]
        np.testing.assert_array_equal(heights, reference)
        plain = lambda y, delta: exact_membership(spec, y, delta)
        h_plain = HeightOracle(plain, spec.geometry, h.x, h.bin_tol, h.mem_delta)
        np.testing.assert_array_equal(h_plain.as_eval().rows(D, 0.1), reference)


def test_stack_records_per_row_mem_count_once():
    class RecordCountingLedger(QueryLedger):
        def __init__(self):
            super().__init__()
            self.records = 0

        def record(self, kind, count=1):
            self.records += 1
            super().record(kind, count)

    gen = np.random.default_rng(9)
    spec = Ellipsoid(np.zeros(3), np.diag([0.5, 1.0, 2.0]))
    D = _stack(spec, gen, 6)
    x = np.array([0.3, 0.9, -0.2])
    stacked, per_row = RecordCountingLedger(), QueryLedger()
    h = HeightOracle(wrap_with_ledger(ExactMembership(spec), stacked),
                     spec.geometry, x, 1e-9, 1e-12)
    h.as_eval().rows(D, 0.1)
    h_row = HeightOracle(wrap_with_ledger(ExactMembership(spec), per_row),
                         spec.geometry, x, 1e-9, 1e-12)
    for d in D:
        h_row.alpha_x(d)
    assert stacked.count(MEM) == per_row.count(MEM) == sum(h.iterations_for(d)[1] for d in D)
    # the ledger took each lockstep round, the rows still bisecting, as
    # one record
    assert stacked.records == max(h.iterations_for(d)[1] for d in D)


def test_stack_without_fast_path_bisects_in_lockstep():
    # a MEM without `rows` is asked the lockstep's points, round by round:
    # exactly the stacks an exact oracle's `rows` is asked, one query per
    # row still bisecting
    spec = Ball(np.zeros(2), 1.0)
    seen, stacks = [], []

    def mem(y, delta):
        seen.append(np.array(y))
        return ExactMembership(spec)(y, delta)

    mem.kind = MEM
    exact = ExactMembership(spec)
    exact.rows = lambda P, delta, rows=exact.rows: (stacks.append(P.copy()), rows(P, delta))[1]
    x = np.array([0.5, 0.0])
    D = np.array([[0.1, 0.1], [0.0, 0.0], [-0.2, 0.0]])
    h = HeightOracle(mem, GEOM2, x, 1e-6, 0.01)
    iters = [h.iterations_for(d)[1] for d in D]
    assert len(set(iters)) > 1  # a row leaves the stack before the others
    heights = h.as_eval().rows(D, 0.1)
    np.testing.assert_array_equal(
        heights, HeightOracle(exact, GEOM2, x, 1e-6, 0.01).as_eval().rows(D, 0.1))
    np.testing.assert_array_equal(np.array(seen), np.concatenate(stacks))
    assert len(seen) == sum(iters)
    np.testing.assert_array_equal(heights, [-h.alpha_x(d) * h.x_norm for d in D])


def test_intersection_bisects_like_a_per_query_oracle():
    # ExactMembership bisects an Intersection through its contains_rows,
    # the conjunction of its parts' stack tests
    spec = Intersection([Ball(np.zeros(3), 1.0), BoxBody(np.zeros(3), 0.8),
                         Ellipsoid(np.zeros(3), np.diag([0.5, 1.0, 2.0]))],
                        np.zeros(3), 0.5)

    def mem(y, delta):
        return exact_membership(spec, y, delta)

    mem.kind = MEM
    x = np.array([0.3, 0.9, -0.2])
    D = _stack(spec, np.random.default_rng(10), 6)
    stacked, per_query = QueryLedger(), QueryLedger()
    h = HeightOracle(wrap_with_ledger(ExactMembership(spec), stacked),
                     spec.geometry, x, 1e-9, 1e-12)
    h_ref = HeightOracle(wrap_with_ledger(mem, per_query), spec.geometry, x, 1e-9, 1e-12)
    reference = [h_ref.alpha_x(d) for d in D]
    np.testing.assert_array_equal(h.as_eval().rows(D, 0.1),
                                  [-alpha * h.x_norm for alpha in reference])
    assert stacked.count(MEM) == per_query.count(MEM) > 0
    assert h.alpha_x(D[0]) == reference[0]
    hi, iters = h.iterations_for(D[0])
    assert ExactMembership(spec).alpha_bisect(D[0], x, hi, iters, 1e-12) == reference[0]


def test_single_point_rejects_malformed_input():
    # a stack is taken as given; a single point is checked where it enters
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    for bad in (np.zeros((1, 2)), np.zeros(0), np.zeros((3, 3)), np.array([0.0, np.nan])):
        for evaluate in (h.alpha_x, lambda d: h.as_eval()(d, 0.1)):
            with pytest.raises(ValueError):
                evaluate(bad)


def test_single_point_of_another_dimension_is_refused():
    # a base point is not broadcast against x: (0.3,) is not (0.3, 0.3)
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    for bad in (np.array([0.3]), np.zeros(3)):
        for evaluate in (h.alpha_x, lambda d: h.as_eval()(d, 0.1)):
            with pytest.raises(ValueError, match="dimension 2"):
                evaluate(bad)


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        _height(Ball(np.zeros(2), 1.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        HeightOracle(ExactMembership(Ball(np.zeros(2), 1.0)), GEOM2,
                     np.array([1.0, 0.0]), 0.0, 1e-12)


def test_as_eval_view_reports_height():
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    ev = h.as_eval()
    assert abs(ev(np.zeros(2), 0.123) - (-1.0)) <= 1e-8
