import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, ExactValidity,
                        HPolytope, Linear, Quadratic, Simplex, brute_force_lp,
                        exact_eval, random_hpolytope)
from orc.core import (GRAD, MEM, OPT, SEP, VAL, GradAnswer, MembershipAnswer,
                      ProblemGeometry, QueryLedger, RandomStream,
                      SeparationAnswer, ValidityAnswer, wrap_with_ledger)
from orc.geometry import HalfSpace, unit
from orc.reductions import (VERTICAL_CUT_RETRIES, EpigraphBody, VerticalCut,
                            eval_from_mem_epigraph, eval_from_mem_indicator,
                            eval_support_from_val, grad_conjugate_from_opt,
                            grad_from_sep_epigraph, grad_from_sep_indicator,
                            mem_from_eval_indicator, mem_from_sep,
                            opt_from_mem, opt_from_val,
                            sep_from_grad_indicator, sep_from_opt,
                            support_eval_from_opt, val_from_eval_support)
from orc.separation import SepFromMem

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


def _stacked_quadratic():
    f = lambda y, delta: float(y @ y)
    f.rows = lambda Y, delta: np.vecdot(Y, Y)
    return f


def _epigraph_points(n, delta, gen):
    """(x/2, t/4) rows inside, past the ||x|| wall, at ||x|| in
    (1, 1 + margin], above the lid and below the graph."""
    margin = 4.0 * delta
    u = gen.normal(size=(60, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    norms = np.concatenate([gen.uniform(0.0, 1.0, 20), gen.uniform(1.0 + 2.0 * margin, 2.0, 10),
                            1.0 + margin * gen.uniform(1e-3, 1.0, 20), np.ones(10)])
    t = np.concatenate([gen.uniform(-0.5, 2.0, 50), 2.0 + margin * gen.uniform(1.01, 50.0, 10)])
    return np.column_stack([0.5 * norms[:, None] * u, 0.25 * t])


def _reference_membership(f, p, delta):
    """Membership of one point of K_f, written out per point: the cylinder
    and lid gate, then one f evaluation, with a 4*delta margin."""
    x, t = 2.0 * p[:-1], 4.0 * p[-1]
    margin = 4.0 * delta
    x_norm = float(np.linalg.norm(x))
    if x_norm > 1.0 + margin or t > 2.0 + margin:
        return False
    query = x if x_norm <= 1.0 else x / x_norm
    return f(query, delta / 10.0) <= t + margin


def test_epigraph_membership_rows_matches_membership():
    gen = np.random.default_rng(12)
    for n in (2, 3):
        f = _stacked_quadratic()
        body = EpigraphBody(f, n)
        for delta in (1e-3, 0.05):
            P = _epigraph_points(n, delta, gen)
            expected = [body.membership(p, delta) is INSIDE for p in P]
            assert body.membership_rows(P, delta).tolist() == expected
            assert 0 < sum(expected) < len(expected)
            # membership is a stack of one: check it against the per-point
            # rule written here, over the stacked and over a plain f
            assert expected == [_reference_membership(f, p, delta) for p in P]
            plain = EpigraphBody(_quadratic_eval, n)
            assert plain.membership_rows(P, delta).tolist() == expected


def test_epigraph_membership_rows_rejects_out_of_range_values():
    f = lambda y, d: 7.0
    f.rows = lambda Y, d: np.full(len(Y), 7.0)
    body = EpigraphBody(f, 2)
    with pytest.raises(ValueError, match="values in"):
        body.membership_rows(np.array([[0.1, 0.0, 0.3], [0.0, 0.0, 0.3]]), 1e-6)


def test_epigraph_fast_path_only_over_a_stacked_f():
    # over a plain f every f query stays a single call, in row order
    assert not hasattr(EpigraphBody(_quadratic_eval, 2).as_mem(), "alpha_bisect_rows")
    mem = wrap_with_ledger(EpigraphBody(_stacked_quadratic(), 2).as_mem(), QueryLedger())
    assert hasattr(mem, "alpha_bisect_rows")


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


def _stub_sep(normals):
    """A SEP stub that cuts every query with the next of `normals` and
    records the points it was asked."""
    asked = []

    def sep(point, delta):
        asked.append(np.array(point, dtype=float))
        return SeparationAnswer(HalfSpace(unit(np.array(normals[len(asked) - 1])),
                                          asked[-1], 0.0))

    return sep, asked


def test_grad_from_sep_epigraph_retries_a_steep_cut_deeper():
    # f = 0.5 + 0.1 x_1 is 1-Lipschitz; the first cut has slope 10
    body = EpigraphBody(lambda y, d: 0.5 + 0.1 * float(y[0]), 2)
    sep, asked = _stub_sep([[5.0, 0.0, -1.0], [1.0, 0.0, -4.0]])
    grad = grad_from_sep_epigraph(sep, 2, body.as_mem(), lipschitz=1.0)
    delta = 1e-3
    ans = grad(np.array([0.2, 0.0]), delta)
    np.testing.assert_allclose(ans.subgrad, [0.5, 0.0])
    assert len(asked) == 2
    # the retry sits twice as deep below the graph
    assert (ans.value - 4.0 * asked[0][-1], ans.value - 4.0 * asked[1][-1]) == \
        pytest.approx((delta, 2.0 * delta))


def test_grad_from_sep_epigraph_steep_cuts_end_in_vertical_cut():
    body = EpigraphBody(lambda y, d: 0.5 + 0.1 * float(y[0]), 2)
    normals = [[5.0, 0.0, -1.0]] * VERTICAL_CUT_RETRIES
    sep, asked = _stub_sep(normals)
    grad = grad_from_sep_epigraph(sep, 2, body.as_mem(), lipschitz=1.0)
    with pytest.raises(VerticalCut):
        grad(np.array([0.2, 0.0]), 1e-3)
    assert len(asked) == VERTICAL_CUT_RETRIES
    # without a Lipschitz bound the reduction takes the first cut as it is
    sep, asked = _stub_sep(normals)
    ans = grad_from_sep_epigraph(sep, 2, body.as_mem())(np.array([0.2, 0.0]), 1e-3)
    np.testing.assert_allclose(ans.subgrad, [10.0, 0.0])
    assert len(asked) == 1


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


def _with_ledger(oracle):
    ledger = QueryLedger()
    return wrap_with_ledger(oracle, ledger), ledger


def _reference_support_eval(spec, kind, c, delta):
    """1_K*(c) by the per-query algorithms, written out here over exact
    `support` answers: one OPT query, or a threshold bisection over VAL
    with its query count.  Returns (value, queries)."""
    g = spec.geometry
    if kind == OPT:
        return float(c @ (g.center if not np.any(c) else spec.support(c)[1])), 1
    c_norm = float(np.linalg.norm(c))
    if c_norm == 0.0:
        return 0.0, 0
    iters = math.ceil(math.log2(2.0 * g.kappa / delta))
    lo, hi = 0.0, g.R * c_norm
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if spec.support(c)[0] >= mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iters


@pytest.mark.parametrize("n", [2, 3])
def test_support_eval_rows_match_single_calls_and_counts(n):
    gen = np.random.default_rng(30 + n)
    C = gen.normal(size=(40, n)) * gen.uniform(0.01, 2.0, size=(40, 1))
    C[3] = 0.0
    C[4] = -np.abs(C[4])
    for spec in (Ball(np.zeros(n), 1.0), BoxBody(gen.normal(size=n), 0.5), Simplex(n),
                 random_hpolytope(n, gen)):
        g = spec.geometry
        for factory, make in ((support_eval_from_opt, ExactOptimization),
                              (eval_support_from_val, ExactValidity)):
            stacked, stack_ledger = _with_ledger(make(spec))
            single, row_ledger = _with_ledger(make(spec))
            ev_stack, ev_row = factory(stacked, g), factory(single, g)
            queries = 0
            for delta in (1e-6, 0.01):
                values = ev_stack.rows(C, delta)
                np.testing.assert_array_equal(values, [ev_row(c, delta) for c in C])
                # a single call is a stack of one: check both against
                # the per-query algorithm written out in this test
                reference = [_reference_support_eval(spec, stacked.kind, c, delta) for c in C]
                np.testing.assert_array_equal(values, [value for value, _ in reference])
                queries += sum(count for _, count in reference)
            assert stack_ledger.totals() == row_ledger.totals()
            assert sum(row_ledger.totals().values()) == queries > 0


def test_support_eval_has_rows_only_over_a_stacked_oracle():
    spec = BoxBody(np.zeros(2), 1.0)
    plain_opt = lambda c, d: ExactOptimization(spec)(c, d)
    plain_val = lambda c, gamma, d: ExactValidity(spec)(c, gamma, d)
    assert not hasattr(support_eval_from_opt(plain_opt, spec.geometry), "rows")
    assert not hasattr(eval_support_from_val(plain_val, spec.geometry), "rows")
    assert hasattr(support_eval_from_opt(ExactOptimization(spec), spec.geometry), "rows")


def _recording(oracle, log):
    """A plain oracle with no stack form that logs every query it gets."""
    def plain(*args):
        log.append(tuple(a.tobytes() if isinstance(a, np.ndarray) else float(a) for a in args))
        return oracle(*args)

    plain.kind = oracle.kind
    return plain


def test_plain_opt_and_val_get_the_per_query_sequence():
    # a plain inner oracle sees exactly the queries of the per-query
    # algorithms, in their order: one OPT at delta/(3+kappa), or the
    # threshold bisection's VAL queries, one after another
    gen = np.random.default_rng(14)
    spec = BoxBody(gen.normal(size=3), 0.7)
    g = spec.geometry
    C = gen.normal(size=(6, 3))
    C[2] = 0.0
    for delta in (1e-6, 0.01):
        opt_log, val_log = [], []
        ev_opt = support_eval_from_opt(_recording(ExactOptimization(spec), opt_log), g)
        ev_val = eval_support_from_val(_recording(ExactValidity(spec), val_log), g)
        for c in C:
            ev_opt(c, delta)
            ev_val(c, delta)
        assert opt_log == [(c.tobytes(), delta / (3.0 + g.kappa)) for c in C]
        iters = math.ceil(math.log2(2.0 * g.kappa / delta))
        inner_delta = max(delta / (g.kappa * iters), 1e-15)
        expected = []
        for c in C[C.any(axis=1)]:
            lo, hi = 0.0, g.R * float(np.linalg.norm(c))
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                expected.append((c.tobytes(), mid, inner_delta))
                if spec.support(c)[0] >= mid:
                    lo = mid
                else:
                    hi = mid
        assert val_log == expected


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


def test_opt_from_val_direction_normalized_past_the_unit_ball():
    # c / ||c|| has norm 1 + 2^-52 here, which the epigraph's evaluation
    # refuses; the direction must be pulled back inside the unit ball
    c = np.array([1.4748226520869099, -0.049755760296968106, -0.3674025993780988])
    assert np.linalg.norm(c / np.linalg.norm(c)) > 1.0
    spec = BoxBody(np.zeros(3), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6),
                       eps=0.01, sep_eps=1e-4)
    ans = opt(c, 0.01)
    assert opt.ledgers.val.count(VAL) > 0
    assert float(c @ ans.maximizer) >= spec.support(c)[0] - 0.1 * np.linalg.norm(c)


def test_opt_from_val_zero_direction():
    spec = Ball(np.zeros(2), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6),
                       eps=0.01, sep_eps=1e-4)
    np.testing.assert_array_equal(opt(np.zeros(2), 0.01).maximizer,
                                  np.zeros(2))


def test_opt_from_val_evaluates_f_through_mem_and_spends_one_sep(monkeypatch):
    # f is bisected through the epigraph body's MEM, ceil(log2(2/delta))
    # queries; SEP is asked once, just below the graph, unless it retries
    spec = BoxBody(np.zeros(2), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6),
                       eps=0.02, sep_eps=1e-4)
    mem_in_sep = []
    original = SepFromMem.__call__

    def counted(self, y, eta):
        before = opt.ledgers.mem.count(MEM)
        answer = original(self, y, eta)
        mem_in_sep.append(opt.ledgers.mem.count(MEM) - before)
        return answer

    monkeypatch.setattr(SepFromMem, "__call__", counted)
    for c in ([1.0, 0.3], [-0.2, 1.0], [-1.0, -0.7]):
        before = opt.ledgers.mem.count(MEM)
        mem_in_sep.clear()
        opt(np.array(c), 0.02)
        assert len(mem_in_sep) == 1
        assert (opt.ledgers.mem.count(MEM) - before
                == math.ceil(math.log2(2.0 / 0.02)) + mem_in_sep[0])
    assert opt.ledgers.sep.count(SEP) == 3


@pytest.mark.parametrize("make", [Simplex,
                                  lambda n: BoxBody(np.array([1.5, -0.5, 0.75][:n]), 0.5)],
                         ids=["simplex", "shifted_box"])
@pytest.mark.parametrize("n", [2, 3])
def test_opt_from_val_sound_off_the_origin(make, n):
    spec = make(n)
    eps = 0.01
    sound = 0
    for seed in range(10):
        rng = RandomStream(seed)
        c = unit(rng.child("c").generator().normal(size=n))
        opt = opt_from_val(ExactValidity(spec), spec.geometry, rng.child("chain"),
                           eps=eps, sep_eps=1e-4)
        gap = spec.support(c)[0] - float(c @ opt(c, eps).maximizer)
        # the experiment harness's two-sided tolerance for this chain
        sound += abs(gap) <= 3.0 * eps * (1.0 + spec.geometry.kappa)
    assert sound >= 9


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


def _hidden(oracle):
    """The oracle behind a plain wrapper that has no stack form: the
    row-by-row path a tracing wrapper takes."""
    plain = lambda *args: oracle(*args)
    plain.kind = oracle.kind
    return plain


def _chain_answer(chain, spec, seed, hide):
    rng = RandomStream(seed)
    c = unit(rng.child("c").generator().normal(size=spec.dim))
    if chain == "sep_from_opt":
        base = ExactOptimization(spec)
        oracle = sep_from_opt(_hidden(base) if hide else base, spec.geometry,
                              rng.child("chain"), eps=0.02, sep_eps=1e-4)
        query = lambda: oracle(spec.geometry.center + 1.5 * spec.radial_scale(c) * c, 0.02)
    else:
        base = ExactValidity(spec)
        oracle = opt_from_val(_hidden(base) if hide else base, spec.geometry,
                              rng.child("chain"), eps=0.02, sep_eps=1e-4)
        query = lambda: oracle(c, 0.02)
    try:
        answer = query()
    except Exception as exc:  # compared like any other answer
        answer = exc
    counts = {name: ledger.totals() for name, ledger in vars(oracle.ledgers).items()}
    return answer, counts


def _reply(answer):
    """What a caller sees of an answer, down to the bytes."""
    if isinstance(answer, Exception):
        return f"{type(answer).__name__}: {answer}"
    if hasattr(answer, "halfspace"):
        h = answer.halfspace
        return None if h is None else (h.normal.tobytes(), h.anchor.tobytes(), h.slack)
    return answer.maximizer.tobytes()


@pytest.mark.parametrize("chain", ["sep_from_opt", "opt_from_val"])
@pytest.mark.parametrize("make", [lambda n: Ball(np.zeros(n), 1.0),
                                  lambda n: BoxBody(np.zeros(n), 1.0), Simplex,
                                  lambda n: BoxBody(np.full(n, 0.1), 1.0)],
                         ids=["ball", "box", "simplex", "shifted_box"])
@pytest.mark.parametrize("n", [2, 3])
def test_epigraph_chains_stack_path_matches_row_path(chain, make, n):
    spec = make(n)
    stack_answer, stack_counts = _chain_answer(chain, spec, 60 + n, hide=False)
    row_answer, row_counts = _chain_answer(chain, spec, 60 + n, hide=True)
    assert _reply(stack_answer) == _reply(row_answer)
    assert stack_counts == row_counts


@pytest.mark.parametrize("make", [lambda n: Ball(np.zeros(n), 1.0),
                                  lambda n: BoxBody(np.zeros(n), 1.0), Simplex,
                                  lambda n: BoxBody(np.array([1.5, -0.5, 0.75][:n]), 0.5)],
                         ids=["ball", "box", "simplex", "shifted_box"])
@pytest.mark.parametrize("n", [2, 3])
def test_sep_from_opt_answers_inside_and_cuts_soundly(make, n):
    # The chain runs on the body translated to its centre, where the
    # normalized support function stays in [0, 1]: Simplex(2)'s, taken
    # about the origin, reached 1/R = 1.31 at c = e_i and ended in the
    # epigraph's range check.
    spec = make(n)
    for seed in range(10):
        rng = RandomStream(seed)
        u = unit(rng.child("dir").generator().normal(size=n))
        sep = sep_from_opt(ExactOptimization(spec), spec.geometry, rng.child("chain"),
                           eps=0.02, sep_eps=1e-4)
        at = lambda scale: spec.geometry.center + scale * spec.radial_scale(u) * u
        assert sep(at(0.5), 0.02).inside
        for scale in (1.5, 3.0):
            h = sep(at(scale), 0.02).halfspace
            assert h is not None
            assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + 1e-9
