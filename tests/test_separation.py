import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, FlipNoise,
                        Simplex, random_hpolytope)
from orc.core import (MEM, ProblemGeometry, QueryLedger, RandomStream,
                      wrap_with_ledger)
from orc.geometry import Box, coordinate_segment_endpoints
from orc.height import HeightOracle
from orc.separation import (ANCHORED, THEORETICAL, DegenerateGradient,
                            SeparatorConfig, SepFromMem, separate,
                            theoretical_slack)
from orc.subgrad import (EstimatorParams, sample_box_points,
                         separate_convex_func)

BALL_GEOM = ProblemGeometry(2, 1.0, 1.0)


def _cfg(eps=1e-4, rho=0.1, geometry=BALL_GEOM, **kw):
    return SeparatorConfig(eps=eps, rho=rho, geometry=geometry, **kw)


def test_branch_a_inside_point_returns_no_halfspace():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    ans = separate(_cfg(), mem, np.zeros(2), RandomStream(0))
    assert ans.inside and ans.halfspace is None


def test_branch_b_far_point_gets_radial_halfspace():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([3.0, 0.0])
    ans = separate(_cfg(), mem, x, RandomStream(0))
    h = ans.halfspace
    np.testing.assert_allclose(h.normal, [1.0, 0.0])
    np.testing.assert_array_equal(h.anchor, x)
    assert h.slack == 0.0


def test_branch_b_uses_single_membership_call():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    separate(_cfg(), mem, np.array([3.0, 0.0]), RandomStream(0))
    assert ledger.count(MEM) == 1


def test_deep_inside_uses_single_membership_call():
    ledger = QueryLedger()
    mem = wrap_with_ledger(ExactMembership(Ball(np.zeros(2), 1.0)), ledger)
    separate(_cfg(), mem, np.array([0.1, 0.1]), RandomStream(0))
    assert ledger.count(MEM) == 1


def test_branch_c_near_boundary_ball_separates_reliably():
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([1.0001, 0.0])
    hits = 0
    for seed in range(200):
        ans = separate(_cfg(), mem, x, RandomStream(seed))
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
        ans = separate(_cfg(geometry=geom), mem, x, RandomStream(seed))
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
    cfg = _cfg(geometry=geom)
    x = np.array([0.999, 0.0, 0.0])
    separate(cfg, mem, x, RandomStream(3))
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
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    geom = ProblemGeometry(2, 1.0, 2.0)
    with pytest.raises(DegenerateGradient):
        separate(_cfg(retries=2, geometry=geom), mem, np.array([1.3, 0.0]),
                 RandomStream(5))
    assert len(attempts) == 3  # initial attempt plus two retries


def test_retry_succeeds_once_gradient_clears_threshold(monkeypatch):
    import orc.separation as sepmod

    answers = [np.full(2, 1e-12), np.array([0.6, 0.8])]

    def staged(f_eval, params, rng):
        return answers.pop(0)

    monkeypatch.setattr(sepmod, "separate_convex_func", staged)
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    geom = ProblemGeometry(2, 1.0, 2.0)
    h = separate(_cfg(retries=2, geometry=geom), mem, np.array([1.3, 0.0]),
                 RandomStream(5)).halfspace
    np.testing.assert_allclose(h.normal, [0.6, 0.8])


def test_theoretical_slack_positive_and_looser_than_anchored():
    geom = ProblemGeometry(2, 1.0, 2.0)
    cfg_t = _cfg(mode=THEORETICAL, geometry=geom)
    assert theoretical_slack(cfg_t) > 0.0
    mem = ExactMembership(Ball(np.zeros(2), 1.0))
    x = np.array([1.2, 0.0])
    ht = separate(cfg_t, mem, x, RandomStream(9)).halfspace
    ha = separate(_cfg(mode=ANCHORED, geometry=geom), mem, x,
                  RandomStream(9)).halfspace
    assert ha.slack == 0.0
    assert ht.slack > ha.slack
    np.testing.assert_allclose(ht.normal, ha.normal)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(eps=0.0)
    with pytest.raises(ValueError):
        _cfg(eps=2.0)  # above r
    with pytest.raises(ValueError):
        _cfg(rho=1.5)
    with pytest.raises(ValueError):
        _cfg(mode="bogus")


@pytest.mark.parametrize("retries", ["x", -1, True, 1.5, None])
def test_config_rejects_bad_retries(retries):
    with pytest.raises(ValueError, match="retries"):
        _cfg(retries=retries)
    with pytest.raises(ValueError, match="retries"):
        SepFromMem(ExactMembership(Ball(np.zeros(2), 1.0)), BALL_GEOM, RandomStream(0),
                   eps=1e-4, retries=retries)


def test_r1_schedule_clamped_to_sampling_safety():
    geom = ProblemGeometry(4, 1.0, 1.0)
    cfg = _cfg(eps=0.5, geometry=geom)
    assert cfg.r1() <= geom.r / (4.0 * math.sqrt(geom.n))
    cfg_small = _cfg(eps=1e-12, geometry=geom)
    assert cfg_small.r1() == pytest.approx(
        geom.n ** (1 / 6) * (1e-12) ** (1 / 3) * geom.R ** (2 / 3) / geom.kappa)


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


class _PerRayMem:
    """ExactMembership whose stack path bisects one ray per call."""

    kind = MEM

    def __init__(self, spec):
        self._mem = ExactMembership(spec)

    def __call__(self, y, delta):
        return self._mem(y, delta)

    def alpha_bisect_rows(self, D, x, hi, iters, delta):
        return np.concatenate([self._mem.alpha_bisect_rows(D[i:i + 1], x, hi[i:i + 1],
                                                           iters[i:i + 1], delta)
                               for i in range(len(D))])


@pytest.mark.parametrize("make", [
    lambda: Simplex(6, 1.0),
    lambda: Ellipsoid(np.zeros(5), np.diag([0.3, 0.6, 1.0, 1.5, 2.0])),
    lambda: random_hpolytope(5, RandomStream(4)),
], ids=["simplex", "ellipsoid", "hpoly"])
def test_stack_path_gives_per_ray_normal_and_mem_count(make):
    spec = make()
    gen = np.random.default_rng(12)
    for trial in range(5):
        u = gen.normal(size=spec.dim)
        u /= np.linalg.norm(u)
        y = spec.geometry.center + 1.2 * spec.radial_scale(u) * u
        answers = []
        for mem in (ExactMembership(spec), _PerRayMem(spec)):
            ledger = QueryLedger()
            sep = SepFromMem(wrap_with_ledger(mem, ledger), spec.geometry,
                             RandomStream(trial), eps=1e-8, rho=0.1)
            answers.append((sep(y, 0.01).halfspace.normal, ledger.count(MEM)))
        (stacked, stacked_mem), (per_ray, per_ray_mem) = answers
        assert stacked_mem == per_ray_mem > 1  # the height branch ran
        np.testing.assert_array_equal(stacked, per_ray)


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


def test_flip_noise_sees_queries_in_per_point_order():
    # the per-point estimator: each chord endpoint evaluated in turn,
    # hi before lo, one full bisection each
    def per_point_estimate(ho, params, rng):
        y, z = sample_box_points(params, rng)
        inner = Box(y, params.r2)
        g = np.empty(params.n)
        for i in range(params.n):
            lo, hi = coordinate_segment_endpoints(inner, z, i)
            g[i] = (ho.h_x(hi) - ho.h_x(lo)) * (1.0 / (2.0 * params.r2))
        return g

    spec = Simplex(3, 1.0)
    geom = spec.geometry.rescaled()
    x = np.array([0.4, 0.3, 0.2])
    params = EstimatorParams(np.zeros(3), 0.02, 4e-6, 3.0 * geom.kappa)
    runs = []
    for estimate in (lambda ho, rng: separate_convex_func(ho.as_eval(), params, rng),
                     lambda ho, rng: per_point_estimate(ho, params, rng)):
        seen = []

        def recording(y, delta, seen=seen):
            seen.append(np.array(y))
            return ExactMembership(spec)(spec.geometry.center + spec.geometry.R * y,
                                         delta)

        noisy = FlipNoise(recording, 0.05, RandomStream(3))
        ho = HeightOracle(noisy, geom, x, 1e-6, 1e-6)
        runs.append((estimate(ho, RandomStream(7)), seen))
    (g, seen), (g_ref, seen_ref) = runs
    assert len(seen) == len(seen_ref) > 0
    np.testing.assert_array_equal(np.array(seen), np.array(seen_ref))
    np.testing.assert_array_equal(g, g_ref)


@pytest.mark.parametrize("spec", [Ball(np.zeros(3), 1.0), BoxBody(np.zeros(3), 0.5), Simplex(3)])
def test_sep_from_mem_refuses_a_query_of_another_dimension(spec):
    sep = SepFromMem(ExactMembership(spec), spec.geometry, RandomStream(0), eps=1e-6)
    for m in (1, 2, 4):
        with pytest.raises(ValueError, match="expected a vector of dimension 3"):
            sep(np.full(m, 0.1), 0.01)
