import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, FlipNoise,
                        Simplex, exact_membership, random_hpolytope)
from orc.core import (MEM, ProblemGeometry, QueryLedger, RandomStream,
                      wrap_with_ledger)
from orc.height import HeightOracle
from orc.separation import ANCHORED, THEORETICAL, DegenerateGradient, SepFromMem
from orc.subgrad import (EstimatorParams, sample_box_points,
                         separate_convex_func)

BALL_GEOM = ProblemGeometry(2, 1.0, 1.0)


def _sep(mem, rng, eps=1e-4, rho=0.1, geometry=BALL_GEOM, **kw):
    """A SepFromMem on rng: its first query runs on rng.child(1)."""
    return SepFromMem(mem, geometry, rng, eps=eps, rho=rho, **kw)


def test_branch_a_inside_point_returns_no_halfspace():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    ans = _sep(mem, RandomStream(0))(np.zeros(2), 0.01)
    assert ans.inside and ans.halfspace is None


def test_branch_b_far_point_gets_radial_halfspace():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([3.0, 0.0])
    ans = _sep(mem, RandomStream(0))(x, 0.01)
    h = ans.halfspace
    np.testing.assert_allclose(h.normal, [1.0, 0.0])
    np.testing.assert_array_equal(h.anchor, x)
    assert h.slack == 0.0


def test_branch_b_uses_single_membership_call():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    _sep(mem, RandomStream(0))(np.array([3.0, 0.0]), 0.01)
    assert ledger.count(MEM) == 1


def test_deep_inside_uses_single_membership_call():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    _sep(mem, RandomStream(0))(np.array([0.1, 0.1]), 0.01)
    assert ledger.count(MEM) == 1


def test_branch_c_near_boundary_ball_separates_reliably():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([1.0001, 0.0])
    hits = 0
    for seed in range(200):
        ans = _sep(mem, RandomStream(seed))(x, 0.01)
        h = ans.halfspace
        assert h is not None
        # valid cut for the true boundary point (1, 0)
        if float(h.normal @ np.array([1.0, 0.0])) >= 0.9:
            hits += 1
    assert hits >= 190


def test_branch_c_cut_excludes_query_halfspace_math():
    mem = ExactMembership(BoxBody(np.zeros(2), 1.0))
    spec = BoxBody(np.zeros(2), 1.0)
    geom = ProblemGeometry(2, 1.0, math.sqrt(2.0))
    x = np.array([1.3, 0.2])
    sound = 0
    for seed in range(100):
        ans = _sep(mem, RandomStream(seed), geometry=geom)(x, 0.01)
        h = ans.halfspace
        sup, _ = spec.support(h.normal)
        if sup <= float(h.normal @ x) + h.slack + 1e-9:
            sound += 1
    assert sound >= 95


def test_membership_call_budget():
    # per estimate: 2n chord evaluations, each one bisection of
    # ceil(log2(hi/bin_tol)) membership calls, plus the initial test
    geom = ProblemGeometry(3, 1.0, 1.0)
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(3), 1.0)), ledger)
    x = np.array([0.999, 0.0, 0.0])
    _sep(mem, RandomStream(3), geometry=geom)(x, 0.01)
    # generous upper bound: one retry round at most for this easy body
    per_bisect = math.ceil(math.log2(
        (geom.R + 2.0) / 0.9))  # hi/bin_tol upper bound exponent below
    assert ledger.count(MEM) <= 2 * geom.n * 64 + 1


def test_degenerate_gradient_after_exhausting_retries(monkeypatch):
    import orc.separation as sepmod

    attempts = []

    def tiny_estimate(f_eval, params, rng):
        attempts.append(1)
        return np.full(params.n, 1e-12)

    monkeypatch.setattr(sepmod, "separate_convex_func", tiny_estimate)
    monkeypatch.setattr(sepmod, "RETRIES", 2)
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    geom = ProblemGeometry(2, 1.0, 2.0)
    with pytest.raises(DegenerateGradient):
        _sep(mem, RandomStream(5), geometry=geom)(np.array([1.3, 0.0]), 0.01)
    assert len(attempts) == 3  # initial attempt plus two retries


def test_retry_succeeds_once_gradient_clears_threshold(monkeypatch):
    import orc.separation as sepmod

    answers = [np.full(2, 1e-12), np.array([0.6, 0.8])]

    def staged(f_eval, params, rng):
        return answers.pop(0)

    monkeypatch.setattr(sepmod, "separate_convex_func", staged)
    monkeypatch.setattr(sepmod, "RETRIES", 2)
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    geom = ProblemGeometry(2, 1.0, 2.0)
    h = _sep(mem, RandomStream(5), geometry=geom)(np.array([1.3, 0.0]), 0.01).halfspace
    np.testing.assert_allclose(h.normal, [0.6, 0.8])


def test_theoretical_slack_positive_and_looser_than_anchored():
    geom = ProblemGeometry(2, 1.0, 2.0)
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([1.2, 0.0])
    ht = _sep(mem, RandomStream(9), mode=THEORETICAL, geometry=geom)(x, 0.01).halfspace
    ha = _sep(mem, RandomStream(9), mode=ANCHORED, geometry=geom)(x, 0.01).halfspace
    assert ht.slack > 0.0
    assert ha.slack == 0.0
    assert ht.slack > ha.slack
    np.testing.assert_allclose(ht.normal, ha.normal)


def test_config_validation():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    with pytest.raises(ValueError):
        _sep(mem, RandomStream(0), eps=0.0)
    with pytest.raises(ValueError):
        _sep(mem, RandomStream(0), eps=2.0)  # above r
    with pytest.raises(ValueError):
        _sep(mem, RandomStream(0), rho=1.5)
    with pytest.raises(ValueError):
        _sep(mem, RandomStream(0), mode="bogus")


def test_r1_schedule_clamped_to_sampling_safety():
    geom = ProblemGeometry(4, 1.0, 1.0)
    mem = ExactMembership(Ball(np.zeros(4), 1.0))
    sep = _sep(mem, RandomStream(0), eps=0.1, geometry=geom)
    assert sep.r1 <= geom.r / (4.0 * math.sqrt(geom.n))
    sep_small = _sep(mem, RandomStream(0), eps=1e-12, geometry=geom)
    assert sep_small.r1 == pytest.approx(
        geom.n ** (1 / 6) * (1e-12) ** (1 / 3) * geom.R ** (2 / 3) / geom.kappa)
    # past eps = 3/16 the clamped r1 is below the estimator's r2
    with pytest.raises(ValueError, match=r"r2 <= r1"):
        _sep(mem, RandomStream(0), eps=0.49, geometry=geom)


@pytest.mark.parametrize("eps", [0.2, 0.3, 0.49])
def test_sep_from_mem_refuses_an_eps_the_estimate_cannot_run_at(eps):
    # the clamped r1 = r/(4 R sqrt(n)) lies below r2 once eps > 3/16,
    # whatever n and kappa: refused when built, not on a query that
    # reaches the height estimate
    disc = Ball(np.zeros(2), 1.0)
    with pytest.raises(ValueError, match=r"r2 <= r1"):
        SepFromMem(ExactMembership(disc), disc.geometry, RandomStream(0), eps=eps)
    SepFromMem(ExactMembership(disc), disc.geometry, RandomStream(0), eps=0.18)


def test_sep_from_mem_general_position_body():
    spec = Simplex(3, 1.0)
    sep = SepFromMem(ExactMembership(spec), spec.geometry, RandomStream(1),
                     eps=1e-6, rho=0.1)
    inside_ans = sep(spec.geometry.center, 0.01)
    assert inside_ans.inside
    y = spec.geometry.center + np.array([1.0, 1.0, 1.0])
    sound = 0
    for seed in range(50):
        sep_i = SepFromMem(ExactMembership(spec), spec.geometry,
                           RandomStream(seed), eps=1e-6, rho=0.1)
        h = sep_i(y, 0.01).halfspace
        sup, _ = spec.support(h.normal)
        if sup <= float(h.normal @ y) + h.slack + 1e-9:
            sound += 1
    assert sound >= 47


def test_sep_from_mem_recenters_anchor_to_caller_frame():
    center = np.array([5.0, -2.0])
    spec = Ball(center, 0.5)
    geom = ProblemGeometry(2, 0.5, 0.5, center=center)
    sep = SepFromMem(ExactMembership(spec), geom, RandomStream(2),
                     eps=1e-6, rho=0.1)
    y = center + np.array([0.8, 0.0])
    h = sep(y, 0.01).halfspace
    np.testing.assert_array_equal(h.anchor, y)
    assert float(h.normal @ np.array([1.0, 0.0])) > 0.9


class _RecordingSpec:
    """A body that records every point its containment tests see."""

    def __init__(self, spec):
        self.spec, self.dim, self.points = spec, spec.dim, []

    def contains(self, y):
        self.points.append(y.copy())
        return self.spec.contains(y)

    def contains_rows(self, P):
        self.points.extend(P.copy())
        return self.spec.contains_rows(P)


@pytest.mark.parametrize("make", [
    lambda: Simplex(6, 1.0),
    lambda: BoxBody(np.array([1.0, -2.0, 0.5]), 0.5),
    lambda: Ellipsoid(np.zeros(5), np.diag([0.3, 0.6, 1.0, 1.5, 2.0])),
    lambda: random_hpolytope(5, RandomStream(4)),
], ids=["simplex", "box", "ellipsoid", "hpoly"])
def test_stack_path_gives_per_ray_normal_and_mem_count(make):
    # MEM with a stack form (lockstep bisection) against a plain MEM
    # (one query per point, row after row): the base oracle is asked
    # bitwise the same points, in another order, and the cut and the
    # MEM count agree.  The simplex and the box sit off the origin with
    # R != 1, so the height oracle's map into the body's frame runs.
    spec = make()
    gen = np.random.default_rng(12)
    for trial in range(5):
        u = gen.normal(size=spec.dim)
        u /= np.linalg.norm(u)
        y = spec.geometry.center + 1.2 * spec.radial_scale(u) * u
        answers = []
        for stacked in (True, False):
            recording = _RecordingSpec(spec)
            if stacked:
                mem = ExactMembership(recording)
            else:
                mem = lambda p, delta, recording=recording: exact_membership(recording, p, delta)
                mem.kind = MEM
            ledger = QueryLedger()
            sep = SepFromMem(wrap_with_ledger(mem, ledger), spec.geometry,
                             RandomStream(trial), eps=1e-8, rho=0.1)
            answers.append((sep(y, 0.01).halfspace.normal, ledger.count(MEM),
                            sorted(map(tuple, recording.points))))
        (stacked, stacked_mem, stacked_points), (per_row, per_row_mem, per_row_points) = answers
        assert stacked_mem == per_row_mem == len(stacked_points) > 1  # the height branch ran
        assert stacked_points == per_row_points
        np.testing.assert_array_equal(stacked, per_row)


@pytest.mark.parametrize("make", [
    lambda: Simplex(4, 1.0),
    lambda: Ellipsoid(np.zeros(4), np.diag([0.3, 0.6, 1.0, 1.5])),
], ids=["simplex", "ellipsoid"])
def test_query_precision_leaves_fixed_eps_answer_unchanged(make):
    # the membership precision is fixed for the body: a query's eta is
    # validated, and changes neither the cut nor the MEM queries spent
    spec = make()
    gen = np.random.default_rng(5)
    for trial in range(3):
        u = gen.normal(size=spec.dim)
        u /= np.linalg.norm(u)
        y = spec.geometry.center + 1.2 * spec.radial_scale(u) * u
        answers = []
        for eta in (0.01, 1e-9):
            ledger = QueryLedger()
            sep = SepFromMem(wrap_with_ledger(ExactMembership(spec), ledger),
                             spec.geometry, RandomStream(trial), eps=1e-8)
            answers.append((sep(y, eta).halfspace.normal, ledger.count(MEM)))
        (coarse, coarse_mem), (fine, fine_mem) = answers
        assert coarse_mem == fine_mem > 1  # the height branch ran
        np.testing.assert_array_equal(coarse, fine)


def test_flip_noise_sees_the_lockstep_queries():
    # FlipNoise has no stack form, so the height oracle asks it one query
    # per row of each centre-search and lockstep round: at p = 0 exactly
    # the stacks an exact oracle's `rows` is asked, and the estimate is
    # bitwise the stacked one.  The per-point estimator, each chord
    # endpoint evaluated in turn, hi before lo, one full bisection each,
    # differs by the bracketed rows' rounding: each height within
    # bin_tol*||x||, so each coordinate within bin_tol*||x||/r2
    def per_point_estimate(ho, params, rng):
        y, z = sample_box_points(params, rng)
        h_x = ho.as_eval()
        g = np.empty(params.n)
        for i in range(params.n):
            # the axis-i chord through z of the box y +- r2
            lo, hi = z.copy(), z.copy()
            lo[i], hi[i] = y[i] - params.r2, y[i] + params.r2
            g[i] = (h_x(hi, 0.1) - h_x(lo, 0.1)) * (1.0 / (2.0 * params.r2))
        return g

    spec = Simplex(3, 1.0)
    x = np.array([0.4, 0.3, 0.2])
    params = EstimatorParams(np.zeros(3), 0.02, 4e-6, 3.0 * spec.geometry.rescaled().kappa)
    stacks = []
    exact = ExactMembership(spec)
    exact.rows = lambda P, delta, rows=exact.rows: (stacks.append(P.copy()), rows(P, delta))[1]
    estimate = lambda ho: separate_convex_func(ho.as_eval(), params, RandomStream(7))
    g_stacked = estimate(HeightOracle(exact, spec.geometry, x, 1e-6, 1e-6))
    counts = []
    for p in (0.0, 0.05):
        seen = []

        def recording(y, delta, seen=seen):
            seen.append(np.array(y))
            return ExactMembership(spec)(y, delta)

        ho = HeightOracle(FlipNoise(recording, p, RandomStream(3)), spec.geometry, x, 1e-6, 1e-6)
        g = estimate(ho)
        counts.append(len(seen))
        if p == 0.0:
            np.testing.assert_array_equal(np.array(seen), np.concatenate(stacks))
            np.testing.assert_array_equal(g, g_stacked)
            per_point = per_point_estimate(ho, params, RandomStream(7))
            assert not np.array_equal(g, per_point)  # the Lipschitz brackets ran
            assert np.abs(g - per_point).max() <= 1e-6 * ho.x_norm / params.r2
    # each row costs its round count whatever the answers
    assert counts[0] == counts[1] > 0


def test_sep_from_mem_refuses_an_eps_it_cannot_ask_mem_at():
    # the first MEM query is at precision eps*R, which must lie below 1/2
    far = Ball(np.zeros(2), 100.0)
    with pytest.raises(ValueError, match=r"eps\*R < 1/2"):
        SepFromMem(ExactMembership(far), far.geometry, RandomStream(0), eps=0.01)
    spec = Ball(np.zeros(2), 60.0)
    sep = SepFromMem(ExactMembership(spec), spec.geometry, RandomStream(0), eps=1e-3)
    assert sep(np.zeros(2), 0.01).inside
    y = np.array([90.0, 0.0])
    h = sep(y, 0.01).halfspace
    assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + 1e-9


@pytest.mark.parametrize("spec", [Ball(np.zeros(3), 1.0), BoxBody(np.zeros(3), 0.5), Simplex(3)])
def test_sep_from_mem_refuses_a_query_of_another_dimension(spec):
    sep = SepFromMem(ExactMembership(spec), spec.geometry, RandomStream(0), eps=1e-6)
    for m in (1, 2, 4):
        with pytest.raises(ValueError, match="expected a vector of dimension 3"):
            sep(np.full(m, 0.1), 0.01)
