import collections
import math
import os
import sys

import numpy as np
import pytest

import orc
from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactSeparation, ExactViolation, HPolytope, Simplex,
                        brute_force_lp)
from orc.core import (SEP, MembershipAnswer, ProblemGeometry, QueryLedger,
                      RandomStream, SeparationAnswer, VIOL, ViolationAnswer,
                      wrap_with_ledger)
from orc.ellipsoid import (EllipsoidState, OptimizerConfig,
                           OracleInconsistency, ellipsoid_cut, opt_from_viol,
                           optimize_linear, viol_from_opt)
from orc.geometry import HalfSpace, unit


# ---------------------------------------------------------------------------
# the cut update itself

def test_cut_example_center_and_volume_ratio():
    state = EllipsoidState.ball(np.zeros(2), 1.0)
    new = ellipsoid_cut(state, np.array([1.0, 0.0]))
    np.testing.assert_allclose(new.center, [-1.0 / 3.0, 0.0], atol=1e-12)
    ratio = new.log_volume() - state.log_volume()
    assert abs(ratio - (-1.0 / 6.0)) < 1e-9


def test_cut_log_volume_decrement_is_constant():
    gen = np.random.default_rng(0)
    for n in (1, 2, 3, 7):
        state = EllipsoidState.ball(gen.normal(size=n), 2.0)
        for _ in range(25):
            normal = unit(gen.normal(size=n))
            new = ellipsoid_cut(state, normal)
            drop = state.log_volume() - new.log_volume()
            assert abs(drop - 1.0 / (2.0 * (n + 1))) < 1e-12
            state = new


def test_k_cuts_volume_product():
    n, k = 3, 40
    state = EllipsoidState.ball(np.zeros(n), 1.0)
    start = state.log_volume()
    gen = np.random.default_rng(1)
    for _ in range(k):
        state = ellipsoid_cut(state, unit(gen.normal(size=n)))
    assert abs((start - state.log_volume()) - k / (2.0 * (n + 1))) < 1e-9


def test_near_parallel_cuts_keep_the_calibrated_decrement():
    # 3000 cuts along nearly the same normal squeeze the ellipsoid into
    # a needle whose aspect ratio is bounded only by the 1e-9 jitter
    for n in (2, 16):
        gen = np.random.default_rng(n)
        state = EllipsoidState.ball(np.zeros(n), 1.0)
        target = 1.0 / (2.0 * (n + 1))
        e1 = np.eye(n)[0]
        for _ in range(3000):
            new = ellipsoid_cut(state, unit(e1 + 1e-9 * gen.normal(size=n)))
            assert abs((state.log_volume() - new.log_volume()) - target) <= 1e-9
            state = new
        assert np.all(np.isfinite(state.center))
        assert np.all(np.isfinite(state.J))


def test_cut_keeps_the_retained_halfspace_center_side():
    # new ellipsoid center moves into {y : <normal, y - c> <= 0}
    gen = np.random.default_rng(2)
    state = EllipsoidState.ball(np.zeros(4), 1.0)
    for _ in range(20):
        normal = unit(gen.normal(size=4))
        new = ellipsoid_cut(state, normal)
        assert float(normal @ (new.center - state.center)) < 0.0
        state = new


# ---------------------------------------------------------------------------
# optimize_linear

def _opt(spec, c, eps=1e-3, geometry=None):
    geometry = geometry or spec.geometry
    cfg = OptimizerConfig(eps=eps)
    return optimize_linear(cfg, ExactSeparation(spec), geometry, c)


def test_ball_maximizes_last_coordinate():
    n = 4
    ans = _opt(Ball(np.zeros(n), 1.0), np.eye(n)[-1])
    assert ans.maximizer is not None
    assert ans.maximizer[-1] >= 1.0 - 2e-3


def test_box_corner_objective():
    n, eps = 3, 1e-3
    spec = BoxBody(np.zeros(n), 1.0)
    ans = _opt(spec, np.ones(n), eps=eps)
    val = float(np.ones(n) @ ans.maximizer)
    assert val >= 3.0 - 3.0 * eps * spec.geometry.kappa * math.sqrt(n)


def test_polytope_matches_brute_force():
    A = np.array([[1.0, 1.0], [-2.0, 1.0], [1.0, -2.0]])
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    b = np.array([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(5.0),
                  1.0 / math.sqrt(5.0)])
    tri = HPolytope(A, b, interior_point=np.zeros(2))
    gen = np.random.default_rng(3)
    for _ in range(10):
        c = unit(gen.normal(size=2))
        val, _ = brute_force_lp(tri, c)
        ans = _opt(tri, c, eps=1e-4)
        assert float(c @ ans.maximizer) >= val - 0.01


def test_empty_interior_certificate():
    # oracle that cuts with the same halfspace family forever: the body
    # is (reported as) empty, so the volume floor must be reached
    gen = np.random.default_rng(4)

    def sep(y, delta):
        return SeparationAnswer(HalfSpace(unit(gen.normal(size=3)), y, 0.0))

    sep.kind = "SEP"
    cfg = OptimizerConfig(eps=0.01)
    ans = optimize_linear(cfg, sep, ProblemGeometry(3, 0.5, 1.0),
                          np.array([1.0, 0.0, 0.0]))
    assert ans.empty_interior


def test_sep_count_is_the_resolved_iteration_budget():
    # the volume floor is crossed on the last budgeted cut, never earlier
    gen = np.random.default_rng(5)
    for n in (2, 4, 8):
        Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        ellipsoid = Ellipsoid(np.zeros(n), (Q * gen.uniform(0.25, 2.0, size=n)) @ Q.T)
        for spec in (BoxBody(np.zeros(n), 1.0), Simplex(n, 1.0), ellipsoid):
            ledger = QueryLedger()
            sep = wrap_with_ledger(ExactSeparation(spec), ledger)
            cfg = OptimizerConfig(eps=1e-3)
            optimize_linear(cfg, sep, spec.geometry, unit(gen.normal(size=n)))
            assert ledger.count(SEP) == cfg.resolved_iters(spec.geometry)


def _reference_optimize(cfg, sep, geometry, c):
    """optimize_linear's loop on an `EllipsoidState`, cut by
    `ellipsoid_cut` with the oracle's halfspace as returned, with the
    objective cut normalized on every cut, and stopped by the textbook
    volume-floor test, which the engine's budget replaces."""
    n = geometry.n
    cu = unit(c)
    state = EllipsoidState.ball(geometry.center, geometry.R)
    log_volume = n * math.log(geometry.R)
    floor_logvol = n * math.log(geometry.r * cfg.eps)
    best, best_val = None, -math.inf
    folds = 0
    for _ in range(cfg.resolved_iters(geometry)):
        ans = sep(state.center, cfg.resolved_sep_delta(geometry))
        if ans.inside:
            val = float(c @ state.center)
            if val > best_val:
                best, best_val = state.center, val
            new = ellipsoid_cut(state, -cu)
        else:
            new = ellipsoid_cut(state, ans.halfspace)
        folds += new.scale < state.scale
        state = new
        log_volume -= 1.0 / (2.0 * (n + 1))
        if log_volume < floor_logvol:
            break
    return best, folds


@pytest.mark.parametrize("n, eps, with_ellipsoid, objectives",
                         [(4, 1e-3, True, 2), (8, 1e-3, True, 2), (2, 1e-9, True, 2),
                          # perfbench's opt_sep size, box and simplex only
                          (16, 1e-3, False, 1)],
                         ids=["4", "8", "2-folds", "16"])
def test_optimize_linear_matches_reference_loop_bitwise(n, eps, with_ellipsoid, objectives):
    gen = np.random.default_rng(40 + n)
    Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    ellipsoid = Ellipsoid(np.zeros(n), (Q * gen.uniform(0.25, 2.0, size=n)) @ Q.T)
    cfg = OptimizerConfig(eps=eps)
    specs = [BoxBody(np.zeros(n), 1.0), Simplex(n, 1.0)] + [ellipsoid] * with_ellipsoid
    for spec in specs:
        for _ in range(objectives):
            c = unit(gen.normal(size=n))
            sep = ExactSeparation(spec)
            got = optimize_linear(cfg, sep, spec.geometry, c).maximizer
            best, folds = _reference_optimize(cfg, sep, spec.geometry, c)
            assert got.tobytes() == best.tobytes()
            # at eps 1e-9 the run crosses a fold of 2^32 from the scale into M
            assert (folds > 0) == (eps < 1e-6)


#: the most Python frames of `orc` code one `optimize_linear` step over a
#: ledgered `ExactSeparation` may run, on average over a run at n = 8
#: (the ledger's call and record, the oracle's call, its entry check in
#: two frames, `separate`, the cut, and for a point outside
#: `normalized` and `_halfspace`; the simplex's threshold on some steps)
FRAMES_PER_STEP = {"box": 8.76, "simplex": 9.19, "ellipsoid": 8.68}


def test_optimize_linear_step_runs_a_fixed_budget_of_python_frames():
    # counted with sys.setprofile, not timed: a frame added to the step
    # (a wrapper, a property, a helper) fails here on any machine
    n = 8
    gen = np.random.default_rng(8)
    Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    specs = {"box": BoxBody(np.zeros(n), 1.0), "simplex": Simplex(n, 1.0),
             "ellipsoid": Ellipsoid(np.zeros(n), (Q * gen.uniform(0.25, 2.0, size=n)) @ Q.T)}
    c = unit(gen.normal(size=n))
    cfg = OptimizerConfig(eps=1e-3)
    package = os.path.dirname(orc.__file__) + os.sep
    for name, spec in specs.items():
        # a first run fills the per-dimension caches
        optimize_linear(cfg, ExactSeparation(spec), spec.geometry, c)
        frames = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(package):
                frames[frame.f_code.co_name] += 1

        sep = wrap_with_ledger(ExactSeparation(spec), QueryLedger())
        sys.setprofile(profile)
        try:
            optimize_linear(cfg, sep, spec.geometry, c)
        finally:
            sys.setprofile(None)
        steps = cfg.resolved_iters(spec.geometry)
        assert sum(frames.values()) <= FRAMES_PER_STEP[name] * steps, (name, steps, frames)


def test_folded_cuts_match_an_unfolded_reference():
    # 3000 cuts at n = 2 grow the scale by sigma^3000 ~ 2^830, so M is
    # folded many times; without the folds M would underflow.  The
    # reference runs the textbook J-form cut, with no scale at all.
    n = 2
    gen = np.random.default_rng(7)
    state = EllipsoidState.ball(np.zeros(n), 1.0)
    center, J = np.zeros(n), np.eye(n)
    target = math.exp(-1.0 / (2.0 * (n + 1)))
    beta = 1.0 - math.sqrt((n - 1.0) / (n + 1.0))
    ratio_min = (n / (n + 1.0)) * (n * n / (n * n - 1.0)) ** ((n - 1) / 2.0)
    sigma = math.sqrt(n * n / (n * n - 1.0) * (target / ratio_min) ** (2.0 / n))
    folds = 0
    for _ in range(3000):
        g = unit(gen.normal(size=n))
        new = ellipsoid_cut(state, g)
        folds += new.scale < state.scale
        state = new
        a = J.T @ g
        u = a / np.linalg.norm(a)
        Ju = J @ u
        center = center - Ju / (n + 1.0)
        J = sigma * (J - beta * np.outer(Ju, u))
        assert np.linalg.norm(state.center - center) <= 1e-12 * np.linalg.norm(center)
        assert np.linalg.norm(state.J - J) <= 1e-12 * np.linalg.norm(J)
    assert folds >= 5
    assert abs(state.log_volume() + 3000 / (2.0 * (n + 1))) < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(eps=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(eps=1.5)


def test_sep_delta_schedule_floor():
    # (eps/(n kappa))^3 as derived, with no floor under it
    cfg = OptimizerConfig(eps=1e-6)
    geom = ProblemGeometry(5, 1.0, 10.0)
    assert cfg.resolved_sep_delta(geom) == pytest.approx(8e-24, rel=1e-12)


# ---------------------------------------------------------------------------
# opt_from_viol / viol_from_opt

def test_opt_from_viol_query_count_and_value():
    spec = Ball(np.zeros(2), 1.0)
    ledger = QueryLedger()
    viol = wrap_with_ledger(ExactViolation(spec), ledger)
    delta = 1e-3
    opt = opt_from_viol(viol, spec.geometry, delta)
    c = np.array([1.0, 0.0])
    ans = opt(c, delta)
    assert ledger.count(VIOL) == math.ceil(math.log2(2.0 / delta))
    assert abs(float(c @ ans.maximizer) - 1.0) <= 2.0 * delta
    # a zero objective takes one query, at gamma = 0, and any point of K
    assert spec.contains(opt(np.zeros(2), delta).maximizer)
    assert ledger.count(VIOL) == math.ceil(math.log2(2.0 / delta)) + 1


def _weak_viol(spec):
    """A valid weak VIOL that returns no maximizer: above gamma, the point
    of K on the segment from the centre x0 to the maximizer where
    c.w = gamma (x0 itself where gamma <= c.x0)."""
    x0 = spec.geometry.center

    def viol(c, gamma, delta):
        sup, arg = spec.support(c)
        if sup <= gamma:
            return ViolationAnswer(None)
        t = max(0.0, (gamma - c @ x0) / (sup - c @ x0))
        return ViolationAnswer(x0 + t * (arg - x0))

    viol.kind = VIOL
    return viol


@pytest.mark.parametrize("spec", [BoxBody(np.zeros(3), 1.0), BoxBody(np.zeros(8), 1.0),
                                  Ball(np.array([3.0, 0.0, 0.0]), 1.0), Simplex(4, 2.0)],
                         ids=["box3", "box8", "off_origin_ball", "simplex4"])
def test_opt_from_viol_brackets_the_body_not_the_unit_ball(spec):
    # over these directions a [-1, 1] bracket gave gaps up to 0.69 on the
    # n = 3 box, 1.56 at n = 8 and 1.0 on the ball: the weak VIOL's
    # witness sits at the threshold, not at the maximizer
    delta = 1e-4
    ledger = QueryLedger()
    opt = opt_from_viol(wrap_with_ledger(_weak_viol(spec), ledger), spec.geometry, delta)
    gen = np.random.default_rng(spec.dim)
    for _ in range(20):
        c = unit(gen.normal(size=spec.dim))
        start = ledger.count(VIOL)
        answer = opt(c, delta)
        assert spec.support(c)[0] - float(c @ answer.maximizer) <= 2.0 * delta
        assert spec.contains(answer.maximizer)
        spread = 2.0 * spec.geometry.R * float(np.linalg.norm(c))
        assert ledger.count(VIOL) - start == math.ceil(math.log2(spread / delta))


def test_opt_from_viol_answers_at_the_finer_of_its_two_precisions():
    # built at 1e-3 and asked at 1e-6, the bisection runs to 1e-6: the
    # weak VIOL's witness sits at the last threshold, so a bracket left
    # at 1e-3 gave gaps up to 2e-3
    spec = BoxBody(np.zeros(3), 1.0)
    ledger = QueryLedger()
    opt = opt_from_viol(wrap_with_ledger(_weak_viol(spec), ledger), spec.geometry, 1e-3)
    gen = np.random.default_rng(5)
    spread = 2.0 * spec.geometry.R
    for query_delta, calls in ((1e-6, math.ceil(math.log2(spread / 1e-6))),
                               (0.25, math.ceil(math.log2(spread / 1e-3)))):
        for _ in range(10):
            c = unit(gen.normal(size=3))
            start = ledger.count(VIOL)
            answer = opt(c, query_delta)
            gap = spec.support(c)[0] - float(c @ answer.maximizer)
            assert 0.0 <= gap <= 2.0 * min(1e-3, query_delta)
            assert ledger.count(VIOL) - start == calls


@pytest.mark.parametrize("query_delta", [math.nan, -1.0, 0.0, 0.5])
def test_opt_from_viol_refuses_a_query_precision_outside_its_range(query_delta):
    spec = Ball(np.zeros(2), 1.0)
    ledger = QueryLedger()
    opt = opt_from_viol(wrap_with_ledger(ExactViolation(spec), ledger), spec.geometry, 1e-3)
    with pytest.raises(ValueError, match="precision"):
        opt(np.array([1.0, 0.0]), query_delta)
    assert ledger.totals() == {}


def _counting_viol(spec, limit=200):
    """ExactViolation that raises past `limit` queries, so a bisection
    that never ends fails instead of hanging."""
    exact = ExactViolation(spec)
    asked = []

    def viol(c, gamma, delta):
        asked.append(gamma)
        if len(asked) > limit:
            raise RuntimeError(f"more than {limit} VIOL queries")
        return exact(c, gamma, delta)

    viol.kind = VIOL
    return viol


@pytest.mark.parametrize("spec, c, delta", [
    (BoxBody(np.zeros(2), 1.0), unit(np.array([1.0, 0.3])), 1e-20),
    (Ellipsoid(np.array([2.0, -1.0]), np.diag([0.5, 2.0])),
     10.0 * unit(np.array([0.4, -1.0])), 1e-15)], ids=["box", "off_origin_ellipsoid"])
def test_opt_from_viol_stops_once_the_midpoint_cannot_split_the_bracket(spec, c, delta):
    # a precision below the float spacing of the bracket used to keep
    # `while hi - lo > d` running for ever
    opt = opt_from_viol(_counting_viol(spec), spec.geometry, delta)
    answer = opt(c, delta)
    assert abs(spec.support(c)[0] - float(c @ answer.maximizer)) <= 1e-12


def test_opt_viol_round_trip_tolerance():
    spec = BoxBody(np.zeros(3), 1.0)
    delta = 1e-4
    viol = viol_from_opt(opt_from_viol(ExactViolation(spec), spec.geometry, delta))
    c = unit(np.ones(3))
    sup = math.sqrt(3.0)
    assert viol(c, sup - 3.0 * delta, delta).witness is not None
    assert viol(c, sup + 3.0 * delta, delta).witness is None


def test_oracle_inconsistency_detected():
    # malicious violation oracle: claims a witness but hands back a
    # point far below the threshold
    def bad_viol(c, gamma, delta):
        return ViolationAnswer(np.array([-1.0, 0.0]))

    bad_viol.kind = VIOL
    opt = opt_from_viol(bad_viol, Ball(np.zeros(2), 1.0).geometry, 1e-3)
    with pytest.raises(OracleInconsistency):
        opt(np.array([1.0, 0.0]), 1e-3)
