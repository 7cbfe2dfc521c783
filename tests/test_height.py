import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, HPolytope,
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
    _, _, (iters,) = h.brackets(d[None, :])
    assert iters == math.ceil(math.log2(
        (1.0 + np.linalg.norm(d) + 0.01) / 0.5 / 1e-6))
    h.alpha_x(d)
    assert ledger.count(MEM) == iters


def _stack(spec, gen, k):
    """k points near the center of the normalized body."""
    return 0.05 * gen.normal(size=(k, spec.dim))


def _estimate_stack(n, gen, r1=1e-3, r2=1e-5):
    """The 2n points of one subgradient estimate near the center of the
    normalized body: z with coordinate i on the faces y_i +/- r2 of the
    box about y, in `subgrad.separate_convex_func`'s layout.  Such a
    stack takes the Lipschitz brackets."""
    y = r1 * gen.uniform(-1.0, 1.0, n)
    z = y + r2 * gen.uniform(-1.0, 1.0, n)
    D = np.repeat(z[None, :], 2 * n, axis=0)
    i = np.arange(n)
    D[2 * i, i] = y + r2
    D[2 * i + 1, i] = y - r2
    return D


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


class RecordCountingLedger(QueryLedger):
    def __init__(self):
        super().__init__()
        self.records = 0

    def record(self, kind, count=1):
        self.records += 1
        super().record(kind, count)


def test_stack_heights_equal_per_row_heights():
    # bodies off the origin with R != 1, so the map into the body's
    # frame runs.  A single height is a stack of one, bisected in full,
    # so check it against a loop written here; a stack of 2n estimate
    # points is bisected in its Lipschitz brackets, within bin_tol of
    # each row's full bisection, and bitwise the same over MEM's stack
    # form and over a plain MEM.  x lies outside both bodies, as the
    # brackets require
    gen = np.random.default_rng(8)
    x = np.array([0.6, -0.15, 0.3, 0.45])
    for spec in (Simplex(4, 1.0), BoxBody(np.array([1.0, -2.0, 0.5, 3.0]), 0.7)):
        g = spec.geometry
        assert g.R != 1.0 and g.center.any()
        assert not spec.contains(g.center + g.R * x)
        h = _height(spec, x, geometry=g)
        h_x = h.as_eval()
        for d in _stack(spec, gen, 4):
            assert h_x(d, 0.1) == -h.alpha_x(d) * h.x_norm == _reference_height(spec, h, d)
        D = _estimate_stack(4, gen)
        assert h.brackets(D)[0].all()  # every row's bracket starts above 0
        heights = h_x.rows(D, 0.1)
        reference = np.array([_reference_height(spec, h, d) for d in D])
        np.testing.assert_allclose(heights, [h_x(d, 0.1) for d in D], rtol=0,
                                   atol=h.bin_tol * h.x_norm)
        np.testing.assert_allclose(heights, reference, rtol=0, atol=h.bin_tol * h.x_norm)
        assert not np.array_equal(heights, reference)
        plain = lambda y, delta: exact_membership(spec, y, delta)
        h_plain = HeightOracle(plain, spec.geometry, h.x, h.bin_tol, h.mem_delta)
        np.testing.assert_array_equal(h_plain.as_eval().rows(D, 0.1), heights)


def test_a_stack_past_the_lipschitz_hypothesis_keeps_its_full_brackets():
    # the bound needs g0 = kappa*max ||D_i|| <= 1/2.  A stack past it,
    # 8 points near the simplex's center (kappa = 5.3) or 6 points of
    # norm 0.6 in the unit disc, keeps its full brackets: every row gets
    # bitwise its single-ray bisection and its round count, in lockstep
    gen = np.random.default_rng(8)
    simplex, disc = Simplex(4, 1.0), Ball(np.zeros(2), 1.0)
    angles = gen.uniform(0.0, 2.0 * math.pi, 6)
    for spec, D, x in ((simplex, _stack(simplex, gen, 8), [0.4, -0.1, 0.2, 0.3]),
                       (disc, 0.6 * np.column_stack([np.cos(angles), np.sin(angles)]),
                        [0.5, 0.2])):
        assert spec.geometry.kappa * np.linalg.norm(D, axis=1).max() > 0.5
        h = _height(spec, x, geometry=spec.geometry)
        lo, hi, iters = h.brackets(D)
        assert not lo.any()
        for d, hi_d, iters_d in zip(D, hi, iters):
            _, (hi_row,), (iters_row,) = h.brackets(d[None, :])
            assert hi_d == hi_row and iters_d == iters_row
        ledger = RecordCountingLedger()
        h_counted = HeightOracle(wrap_with_ledger(ExactMembership(spec), ledger),
                                 spec.geometry, h.x, h.bin_tol, h.mem_delta)
        heights = h_counted.as_eval().rows(D, 0.1)
        assert ledger.count(MEM) == iters.sum() and ledger.records == iters.max()
        np.testing.assert_array_equal(heights, [-h.alpha_x(d) * h.x_norm for d in D])
        np.testing.assert_array_equal(heights, [_reference_height(spec, h, d) for d in D])


def test_stack_records_per_row_mem_count_once():
    # a stack spends its centre-search points and then its rows' round
    # counts; the ledger takes each round, the centre search's k points
    # or the rows still bisecting, as one record
    gen = np.random.default_rng(9)
    spec = Ellipsoid(np.zeros(3), np.diag([0.5, 1.0, 2.0]))
    D = _estimate_stack(3, gen)
    x = np.array([0.3, 0.9, -0.2])

    def height(ledger):
        return HeightOracle(wrap_with_ledger(ExactMembership(spec), ledger),
                            spec.geometry, x, 1e-9, 1e-12)

    search, stacked, per_row = RecordCountingLedger(), RecordCountingLedger(), QueryLedger()
    _, _, iters = height(search).brackets(D)
    rounds = search.records
    assert rounds > 0 and search.count(MEM) == rounds * len(D)
    height(stacked).as_eval().rows(D, 0.1)
    assert stacked.count(MEM) == rounds * len(D) + iters.sum()
    assert stacked.records == rounds + iters.max()
    h_row = height(per_row)
    for d in D:
        h_row.alpha_x(d)
    assert per_row.count(MEM) == sum(h_row.brackets(d[None, :])[2][0] for d in D)
    assert stacked.count(MEM) < per_row.count(MEM)


def test_stack_without_fast_path_bisects_in_lockstep():
    # a MEM without `rows` is asked the centre search's and the
    # lockstep's points, round by round: exactly the stacks an exact
    # oracle's `rows` is asked, one query per point.  x lies outside
    # the disc, as the brackets require
    spec = Ball(np.zeros(2), 1.0)
    seen, stacks = [], []

    def mem(y, delta):
        seen.append(np.array(y))
        return ExactMembership(spec)(y, delta)

    mem.kind = MEM
    exact = ExactMembership(spec)
    exact.rows = lambda P, delta, rows=exact.rows: (stacks.append(P.copy()), rows(P, delta))[1]
    x = np.array([1.25, 0.0])
    D = np.array([[0.1, 0.1], [0.0, 0.0], [-0.2, 0.0]])
    h = HeightOracle(mem, GEOM2, x, 1e-6, 0.01)
    lo, _, iters = HeightOracle(ExactMembership(spec), GEOM2, x, 1e-6, 0.01).brackets(D)
    assert lo.all() and len(set(iters.tolist())) > 1  # a row leaves the stack before the others
    heights = h.as_eval().rows(D, 0.1)
    np.testing.assert_array_equal(
        heights, HeightOracle(exact, GEOM2, x, 1e-6, 0.01).as_eval().rows(D, 0.1))
    np.testing.assert_array_equal(np.array(seen), np.concatenate(stacks))
    rounds = len(stacks) - iters.max()
    assert rounds > 0 and len(seen) == rounds * len(D) + iters.sum()
    np.testing.assert_allclose(heights, [-h.alpha_x(d) * h.x_norm for d in D], rtol=0,
                               atol=h.bin_tol * h.x_norm)


def test_polytope_bisects_like_a_per_query_oracle():
    # ExactMembership bisects through the body's contains_rows, and its
    # alpha_bisect through kernels.bisect_alpha: both as a per-query MEM does
    A = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0], [1.0, -1.0, 0.5]]])
    spec = HPolytope(A, [0.8] * 6 + [1.2, 1.0], np.zeros(3))

    def mem(y, delta):
        return exact_membership(spec, y, delta)

    mem.kind = MEM
    x = np.array([0.3, 0.9, -0.2])
    D = _estimate_stack(3, np.random.default_rng(10))
    stacked, per_query = QueryLedger(), QueryLedger()
    h = HeightOracle(wrap_with_ledger(ExactMembership(spec), stacked),
                     spec.geometry, x, 1e-9, 1e-12)
    h_ref = HeightOracle(wrap_with_ledger(mem, per_query), spec.geometry, x, 1e-9, 1e-12)
    heights = h.as_eval().rows(D, 0.1)
    np.testing.assert_array_equal(heights, h_ref.as_eval().rows(D, 0.1))
    assert stacked.count(MEM) == per_query.count(MEM) > 0
    reference = [h_ref.alpha_x(d) for d in D]
    np.testing.assert_allclose(heights, [-alpha * h.x_norm for alpha in reference], rtol=0,
                               atol=h.bin_tol * h.x_norm)
    assert h.alpha_x(D[0]) == reference[0]
    _, (hi,), (iters,) = h.brackets(D[:1])
    g = spec.geometry  # alpha_bisect bisects in the body's own frame
    assert ExactMembership(spec).alpha_bisect(g.center + g.R * D[0], g.R * x, hi, iters,
                                              1e-12) == reference[0]


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
