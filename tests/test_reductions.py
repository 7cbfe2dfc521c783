import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, ExactValidity,
                        HPolytope, Linear, Quadratic, Simplex, brute_force_lp,
                        exact_eval, random_hpolytope)
from orc.core import (GRAD, MEM, SEP, GradAnswer, MembershipAnswer,
                      ProblemGeometry, QueryLedger, RandomStream,
                      ValidityAnswer, wrap_with_ledger)
from orc.geometry import unit
from orc.reductions import (EpigraphBody, VerticalCut,
                            eval_from_mem_epigraph, eval_from_mem_indicator,
                            eval_support_from_val, grad_conjugate_from_opt,
                            grad_from_sep_epigraph, grad_from_sep_indicator,
                            mem_from_eval_indicator, mem_from_sep,
                            opt_from_mem, opt_from_val,
                            sep_from_grad_indicator, sep_from_opt,
                            support_eval_from_opt, val_from_eval_support)

INSIDE = MembershipAnswer.INSIDE_DILATED
OUTSIDE = MembershipAnswer.OUTSIDE_ERODED


# ---------------------------------------------------------------------------
# indicator identifications

def test_indicator_round_trip_is_identity():
    spec = Simplex(3, 1.0)
    mem = ExactMembership(spec)
    round_trip = mem_from_eval_indicator(eval_from_mem_indicator(mem))
    gen = np.random.default_rng(0)
    for _ in range(1000):
        y = gen.normal(size=3)
        assert round_trip(y, 1e-6) is mem(y, 1e-6)


def test_grad_indicator_from_separation():
    spec = Ball(np.zeros(2), 1.0)
    grad = grad_from_sep_indicator(ExactSeparation(spec))
    inside = grad(np.zeros(2), 1e-6)
    assert inside.value == 0.0
    np.testing.assert_array_equal(inside.subgrad, np.zeros(2))
    outside = grad(np.array([2.0, 0.0]), 1e-6)
    assert outside.value == math.inf
    np.testing.assert_allclose(outside.subgrad, [1.0, 0.0])


def test_sep_from_grad_indicator_thresholds_the_value():
    answers = {0.0: GradAnswer(0.2, np.array([5.0, 0.0])),
               1.0: GradAnswer(math.inf, np.array([3.0, -4.0]))}

    def grad(y, delta):
        return answers[float(y[0])]

    grad.kind = GRAD
    sep = sep_from_grad_indicator(grad)
    # a value below the 1/2 threshold reads as inside, whatever the subgradient
    assert sep(np.array([0.0, 0.5]), 1e-6).inside
    y = np.array([1.0, 0.5])
    h = sep(y, 1e-6).halfspace
    np.testing.assert_allclose(h.normal, [0.6, -0.8])
    np.testing.assert_array_equal(h.anchor, y)
    assert h.slack == 0.0
    with pytest.raises(ValueError):
        sep(y, 0.0)


def test_mem_from_sep_drops_certificate():
    spec = BoxBody(np.zeros(2), 1.0)
    mem = mem_from_sep(ExactSeparation(spec))
    assert mem(np.zeros(2), 1e-6) is INSIDE
    assert mem(np.array([2.0, 2.0]), 1e-6) is OUTSIDE


# ---------------------------------------------------------------------------
# epigraph body

def _quadratic_eval(y, delta):
    return float(np.dot(y, y))


def test_epigraph_membership_examples():
    body = EpigraphBody(_quadratic_eval, 2)
    # x = (0.6, 0), f(x) = 0.36: (x/2, t/4) with t = 0.5 is inside
    assert body.membership(np.array([0.3, 0.0, 0.125]), 1e-6) is INSIDE
    # t = 0.2 < f(x): below the graph
    assert body.membership(np.array([0.3, 0.0, 0.05]), 1e-6) is OUTSIDE
    # ||x|| > 1: outside the cylinder regardless of t
    assert body.membership(np.array([0.6, 0.0, 0.125]), 1e-6) is OUTSIDE


def test_epigraph_certified_sandwich():
    body = EpigraphBody(_quadratic_eval, 3)
    g = body.geometry
    gen = np.random.default_rng(1)
    for _ in range(400):
        u = unit(gen.normal(size=4))
        assert body.membership(g.center + 0.99 * g.r * u, 1e-9) is INSIDE
        assert body.membership(g.center + 1.01 * g.R * u, 1e-9) is OUTSIDE


def test_epigraph_rejects_out_of_range_values():
    body = EpigraphBody(lambda y, d: 7.0, 2)
    with pytest.raises(ValueError):
        body.membership(np.array([0.1, 0.0, 0.3]), 1e-6)


def test_eval_from_mem_epigraph_recovers_function():
    body = EpigraphBody(_quadratic_eval, 2)
    ev = eval_from_mem_epigraph(body.as_mem(), 2)
    for y in ([0.0, 0.0], [0.5, 0.0], [0.3, -0.4], [0.7, 0.7]):
        y = np.array(y)
        assert abs(ev(y, 1e-4) - float(y @ y)) <= 2e-4


def test_eval_from_mem_epigraph_query_count():
    ledger = QueryLedger()
    body = EpigraphBody(_quadratic_eval, 2)
    mem = wrap_with_ledger(body.as_mem(), ledger)
    ev = eval_from_mem_epigraph(mem, 2)
    delta = 1e-3
    ev(np.array([0.2, 0.1]), delta)
    assert ledger.count(MEM) == math.ceil(math.log2(2.0 / delta))


def test_eval_from_mem_epigraph_rejects_outside_unit_ball():
    body = EpigraphBody(_quadratic_eval, 2)
    ev = eval_from_mem_epigraph(body.as_mem(), 2)
    with pytest.raises(ValueError):
        ev(np.array([1.5, 0.0]), 1e-4)


def test_grad_from_sep_epigraph_linear_function():
    a = np.array([0.3, 0.4])
    f = lambda y, d: 0.5 + float(a @ y)
    body = EpigraphBody(f, 2)
    sep = ExactSeparationEpigraph(body)
    grad = grad_from_sep_epigraph(sep, 2)
    ans = grad(np.array([0.2, -0.1]), 1e-3)
    assert abs(ans.value - f(np.array([0.2, -0.1]), 0)) <= 2e-3
    np.testing.assert_allclose(ans.subgrad, a, atol=0.05)


def test_grad_from_sep_epigraph_vertical_cut():
    f = lambda y, d: 0.5
    body = EpigraphBody(f, 2)

    def vertical_sep(point, delta):
        ans = body.membership(point, delta)
        if ans.inside:
            from orc.core import SeparationAnswer
            return SeparationAnswer()
        from orc.core import SeparationAnswer
        from orc.geometry import HalfSpace
        normal = unit(np.array([1.0, 0.0, 0.0]))  # no t component
        return SeparationAnswer(HalfSpace(normal, np.asarray(point, float), 0.0))

    grad = grad_from_sep_epigraph(vertical_sep, 2)
    with pytest.raises(VerticalCut):
        grad(np.array([0.2, 0.0]), 1e-3)


class ExactSeparationEpigraph:
    """Separation for an epigraph body of a smooth f via its membership
    plus an analytically correct graph cut (test instrument)."""

    def __init__(self, body, grad_f=None):
        self.body = body
        self.grad_f = grad_f

    def __call__(self, point, delta):
        from orc.core import SeparationAnswer
        from orc.geometry import HalfSpace
        ans = self.body.membership(point, delta)
        if ans.inside:
            return SeparationAnswer()
        point = np.asarray(point, dtype=float)
        x = 2.0 * point[:-1]
        t = 4.0 * point[-1]
        x_norm = float(np.linalg.norm(x))
        if x_norm > 1.0:
            normal = unit(np.append(x / x_norm, 0.0))
        elif t > 2.0:
            normal = np.append(np.zeros(point.size - 1), 1.0)
        else:
            g = (self.grad_f(x) if self.grad_f is not None
                 else _numeric_grad(self.body.f_eval, x))
            # below the graph: f(x) > t, normal along (grad f, -1) in
            # unscaled coordinates, i.e. (2 grad f, -4) after scaling
            normal = unit(np.append(2.0 * g, -4.0))
        return SeparationAnswer(HalfSpace(normal, point, 0.0))


def _numeric_grad(f_eval, x, h=1e-6):
    g = np.zeros(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f_eval(x + e, 0.0) - f_eval(x - e, 0.0)) / (2.0 * h)
    return g


def test_grad_from_sep_epigraph_quadratic():
    body = EpigraphBody(lambda y, d: 0.5 * float(y @ y), 2)
    grad = grad_from_sep_epigraph(ExactSeparationEpigraph(body), 2)
    y = np.array([0.4, -0.2])
    ans = grad(y, 1e-4)
    np.testing.assert_allclose(ans.subgrad, y, atol=0.05)


# ---------------------------------------------------------------------------
# support function

def test_support_eval_and_bracket():
    spec = BoxBody(np.zeros(3), 1.0)
    ev = support_eval_from_opt(ExactOptimization(spec), spec.geometry)
    gen = np.random.default_rng(2)
    g = spec.geometry
    for _ in range(100):
        c = gen.normal(size=3)
        value = ev(c, 1e-6)
        c_norm = np.linalg.norm(c)
        assert g.r * c_norm - 1e-9 <= value <= g.R * c_norm + 1e-9


def test_grad_conjugate_is_maximizer_fenchel_young():
    spec = Ball(np.zeros(3), 1.0)
    grad = grad_conjugate_from_opt(ExactOptimization(spec), spec.geometry)
    gen = np.random.default_rng(3)
    for _ in range(100):
        c = gen.normal(size=3)
        ans = grad(c, 1e-6)
        # Fenchel-Young with equality at the maximizer: 1_K*(c) = <c, y*>
        assert abs(ans.value - np.linalg.norm(c)) <= 1e-9
        assert np.linalg.norm(ans.subgrad) <= 1.0 + 1e-12


def test_val_round_trip_through_support():
    spec = BoxBody(np.zeros(2), 1.0)
    val = ExactValidity(spec)
    ev = eval_support_from_val(val, spec.geometry)
    gen = np.random.default_rng(4)
    for _ in range(50):
        c = gen.normal(size=2)
        sup, _ = spec.support(c)
        assert abs(ev(c, 1e-6) - sup) <= 1e-5 * max(1.0, sup)
    assert ev(np.zeros(2), 1e-6) == 0.0


def test_val_from_eval_support_thresholds():
    spec = Ball(np.zeros(2), 1.0)
    ev = support_eval_from_opt(ExactOptimization(spec), spec.geometry)
    val = val_from_eval_support(ev)
    c = np.array([1.0, 0.0])
    assert val(c, 0.9, 1e-6) is ValidityAnswer.SOME_ABOVE
    assert val(c, 1.1, 1e-6) is ValidityAnswer.ALL_BELOW


# ---------------------------------------------------------------------------
# composed chains

def test_opt_from_mem_ball():
    spec = Ball(np.zeros(2), 1.0)
    opt = opt_from_mem(ExactMembership(spec), spec.geometry, RandomStream(5),
                       eps=1e-3, sep_eps=1e-6, rho=0.1)
    c = np.array([0.0, 1.0])
    ans = opt(c, 1e-3)
    assert float(c @ ans.maximizer) >= 1.0 - 0.05
    assert opt.ledgers.mem.count(MEM) > 0


def _random_ellipsoid(n, rng):
    gen = rng.generator()
    q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    return Ellipsoid(0.2 * gen.normal(size=n), q @ np.diag(gen.uniform(0.3, 1.5, size=n)) @ q.T)


@pytest.mark.parametrize("make", [_random_ellipsoid, random_hpolytope],
                         ids=["ellipsoid", "hpoly"])
def test_opt_from_mem_with_height_estimator(make):
    # unlike a ball (r = R), these bodies send outside points to the
    # height estimator, so the optimizer runs on estimated normals
    eps = 1e-3
    sound, mem, sep = 0, 0, 0
    for k in range(10):
        n = 2 + k % 2
        body = make(n, RandomStream(700 + k).child("body"))
        c = unit(RandomStream(700 + k).child("c").generator().normal(size=n))
        opt = opt_from_mem(ExactMembership(body), body.geometry,
                           RandomStream(700 + k).child("sep"), eps=eps,
                           sep_eps=eps * 1e-2, rho=0.1)
        value = float(c @ opt(c, eps).maximizer)
        # the experiment harness's tolerance for a graded OPT answer
        tol = eps * (1.0 + body.geometry.kappa)
        best = [body.support(c)[0]]
        if isinstance(body, HPolytope):
            best.append(brute_force_lp(body, c)[0])
        sound += all(b - value <= tol for b in best)
        mem += opt.ledgers.mem.count(MEM)
        sep += opt.ledgers.sep.count(SEP)
    # criterion 5(b)'s rate for SEP built from MEM
    assert sound >= 9
    assert mem >= 20 * sep


def test_opt_from_val_box():
    spec = BoxBody(np.zeros(2), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6),
                       eps=0.01, sep_eps=1e-4)
    c = np.array([1.0, 0.0])
    ans = opt(c, 0.01)
    # maximizer of <e_1, .> over the box has first coordinate 1
    assert abs(float(c @ ans.maximizer) - 1.0) <= 0.1


def test_opt_from_val_zero_direction():
    spec = Ball(np.zeros(2), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6),
                       eps=0.01, sep_eps=1e-4)
    np.testing.assert_array_equal(opt(np.zeros(2), 0.01).maximizer,
                                  np.zeros(2))


def test_sep_from_opt_ball():
    spec = Ball(np.zeros(2), 1.0)
    sep = sep_from_opt(ExactOptimization(spec), spec.geometry,
                       RandomStream(7), eps=0.02, sep_eps=1e-4)
    assert sep(np.array([0.2, 0.1]), 0.01).inside
    h = sep(np.array([1.5, 0.0]), 0.01).halfspace
    assert h is not None
    assert float(h.normal @ np.array([1.0, 0.0])) >= math.cos(math.radians(20))


def test_chain_round_trip_mem_sep_opt_val():
    # MEM -> SEP -> OPT -> EVAL(1_K*) -> VAL must still classify
    # thresholds correctly on the ball
    spec = Ball(np.zeros(2), 1.0)
    opt = opt_from_mem(ExactMembership(spec), spec.geometry, RandomStream(8),
                       eps=1e-3, sep_eps=1e-6, rho=0.1)
    ev = support_eval_from_opt(opt, spec.geometry)
    val = val_from_eval_support(ev)
    hits = 0
    gen = np.random.default_rng(9)
    for i in range(20):
        c = unit(gen.normal(size=2))
        ok_low = val(c, 0.8, 0.01) is ValidityAnswer.SOME_ABOVE
        ok_high = val(c, 1.2, 0.01) is ValidityAnswer.ALL_BELOW
        hits += ok_low and ok_high
    assert hits >= 19
