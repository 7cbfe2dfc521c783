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
    assert abs(h.h_x(np.zeros(2)) - (-1.0)) <= 1e-8


def test_height_box_corner_direction():
    h = _height(BoxBody(np.zeros(2), 1.0), [1.0, 1.0],
                geometry=ProblemGeometry(2, 1.0, math.sqrt(2.0)))
    assert abs(h.h_x(np.zeros(2)) - (-math.sqrt(2.0))) <= 1e-8


def test_height_is_convex_along_segments():
    gen = np.random.default_rng(3)
    spec = Simplex(3, 1.0)
    h = _height(spec, [0.4, 0.1, 0.2], bin_tol=1e-10,
                geometry=spec.geometry)
    base = spec.geometry.center
    for _ in range(60):
        d0 = base + 0.05 * gen.normal(size=3)
        d1 = base + 0.05 * gen.normal(size=3)
        lam = gen.uniform()
        mid = lam * d0 + (1.0 - lam) * d1
        bound = lam * h.h_x(d0) + (1.0 - lam) * h.h_x(d1)
        # convexity up to twice the bisection resolution
        assert h.h_x(mid) <= bound + 4e-10 * np.linalg.norm(h.x)


def test_height_is_lipschitz_near_origin():
    # Lipschitz constant ||x||*(||x|| + R)/r on B(0, r/2), checked on samples
    gen = np.random.default_rng(4)
    spec = Ball(np.zeros(2), 1.0)
    x = np.array([0.8, -0.3])
    h = _height(spec, x, bin_tol=1e-10)
    L = np.linalg.norm(x) * (np.linalg.norm(x) + 1.0) / 1.0
    for _ in range(100):
        d0 = gen.uniform(-0.4, 0.4, size=2)
        d1 = gen.uniform(-0.4, 0.4, size=2)
        gap = abs(h.h_x(d0) - h.h_x(d1))
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
    return spec.geometry.center + 0.05 * gen.normal(size=(k, spec.dim))


def test_stack_heights_equal_per_row_heights():
    gen = np.random.default_rng(8)
    for spec in (Simplex(4, 1.0), BoxBody(np.zeros(4), 1.0)):
        h = _height(spec, [0.4, -0.1, 0.2, 0.3], geometry=spec.geometry)
        D = _stack(spec, gen, 8)
        np.testing.assert_array_equal(h.h_rows(D), [h.h_x(d) for d in D])
        np.testing.assert_array_equal(h.as_eval().rows(D, 0.1), h.h_rows(D))


def test_stack_records_per_row_mem_count_once():
    gen = np.random.default_rng(9)
    spec = Ellipsoid(np.zeros(3), np.diag([0.5, 1.0, 2.0]))
    D = _stack(spec, gen, 6)
    x = np.array([0.3, 0.9, -0.2])
    stacked, per_row = QueryLedger(), QueryLedger()
    h = HeightOracle(wrap_with_ledger(ExactMembership(spec), stacked),
                     spec.geometry, x, 1e-9, 1e-12)
    h.alpha_rows(D)
    h_row = HeightOracle(wrap_with_ledger(ExactMembership(spec), per_row),
                         spec.geometry, x, 1e-9, 1e-12)
    for d in D:
        h_row.alpha_x(d)
    assert stacked.count(MEM) == per_row.count(MEM) == sum(h.iterations_for(d)[1] for d in D)
    # the ledger took the stack as one record
    assert len(stacked.snapshot()) == 1


def test_stack_without_fast_path_falls_back_row_by_row():
    spec = Ball(np.zeros(2), 1.0)
    seen = []

    def mem(y, delta):
        seen.append(np.array(y))
        return ExactMembership(spec)(y, delta)

    mem.kind = MEM
    h = HeightOracle(mem, GEOM2, np.array([0.5, 0.0]), 1e-6, 0.01)
    D = np.array([[0.1, 0.1], [-0.2, 0.0]])
    alphas = h.alpha_rows(D)
    first_row_queries = h.iterations_for(D[0])[1]
    # row order: every query of row 0 comes before any query of row 1
    assert all(q[1] == 0.1 for q in seen[:first_row_queries])
    assert all(q[1] == 0.0 for q in seen[first_row_queries:])
    np.testing.assert_array_equal(alphas, [h.alpha_x(d) for d in D])


def test_intersection_bisects_like_a_per_query_oracle():
    # an Intersection has no kernel encoding: ExactMembership bisects it
    # through the row loop over its exact containment test
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
    np.testing.assert_array_equal(h.alpha_rows(D), reference)
    assert stacked.count(MEM) == per_query.count(MEM) > 0
    assert h.alpha_x(D[0]) == reference[0]
    hi, iters = h.iterations_for(D[0])
    assert ExactMembership(spec).alpha_bisect(D[0], x, hi, iters, 1e-12) == reference[0]


def test_stack_rejects_malformed_input():
    h = _height(Ball(np.zeros(2), 1.0), [0.5, 0.0])
    for bad in (np.zeros(2), np.zeros((0, 2)), np.zeros((3, 3)), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            h.alpha_rows(bad)


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
