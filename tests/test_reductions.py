import math

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, ExactValidity,
                        HPolytope, Linear, Quadratic, Simplex, brute_force_lp,
                        exact_eval, random_hpolytope)
from orc.core import (GRAD, MEM, OPT, SEP, VAL, GradAnswer, MembershipAnswer,
                      OptimizationAnswer, ProblemGeometry, QueryLedger, RandomStream,
                      SeparationAnswer, ValidityAnswer, wrap_with_ledger)
from orc.accpm import optimize_linear_accpm
from orc.ellipsoid import OptimizerConfig, OracleInconsistency, optimize_linear
from orc.geometry import HalfSpace, unit
from orc.reductions import (EpigraphBody, VerticalCut,
                            eval_from_mem_epigraph, eval_from_mem_indicator,
                            eval_support_from_val, grad_conjugate_from_opt,
                            grad_from_sep_epigraph, grad_from_sep_indicator,
                            mem_from_eval_indicator, mem_from_sep,
                            opt_from_mem, opt_from_val,
                            sep_from_grad_indicator, sep_from_opt,
                            support_eval_from_opt, val_from_eval_support,
                            _normalized_opt, _normalized_val)
from orc import reductions
from orc.height import HeightOracle
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


def test_epigraph_mem_has_rows_over_any_f():
    # over a plain f the stack form asks f one row at a time and gives
    # the per-row answers
    gen = np.random.default_rng(13)
    for f in (_quadratic_eval, _stacked_quadratic()):
        mem = EpigraphBody(f, 2).as_mem()
        counted = wrap_with_ledger(mem, QueryLedger())
        P = _epigraph_points(2, 1e-3, gen)
        expected = [mem(p, 1e-3).inside for p in P]
        assert mem.rows(P, 1e-3).tolist() == counted.rows(P, 1e-3).tolist() == expected
        assert 0 < sum(expected) < len(expected)


def test_range_check_parity_over_a_plain_and_a_stacked_f():
    # s ||x||^2 with s > 1 leaves the epigraph's range: separation over a
    # plain f and over a stacked one raises the same ValueError after the
    # same MEM queries, since both bisect in lockstep
    def answer(s, n, seed, stacked):
        f = lambda y, d: s * float(np.vecdot(y, y))
        if stacked:
            f.rows = lambda Y, d: s * np.vecdot(Y, Y)
        body = EpigraphBody(f, n)
        ledger = QueryLedger()
        sep = SepFromMem(wrap_with_ledger(body.as_mem(), ledger), body.geometry,
                         RandomStream(seed), eps=1e-4)
        u = unit(RandomStream(seed).child("dir").generator().normal(size=n + 1))
        try:
            reply = _reply(sep(body.geometry.center + 0.3 * u, 0.01))
        except ValueError as exc:
            reply = str(exc)
        return reply, ledger.count(MEM)

    raised = 0
    for seed in range(24):
        s = 1.3 + 2.7 * RandomStream(seed).child("s").generator().random()
        for n in (2, 3):
            plain = answer(s, n, seed, stacked=False)
            assert plain == answer(s, n, seed, stacked=True)
            raised += isinstance(plain[0], str) and plain[0].startswith("epigraph construction")
    assert raised >= 3


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


def _reference_epigraph_eval(mem, y, delta):
    """f(y) by the per-point t bisection written out here: over [0, 2]
    from t = 1, one MEM query per round at delta / (4 iters), and +inf
    when no query answers INSIDE."""
    iters = math.ceil(math.log2(2.0 / delta))
    lo, hi = 0.0, 2.0
    feasible = False
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mem(np.append(0.5 * y, mid / 4.0), delta / (4.0 * iters)).inside:
            feasible, hi = True, mid
        else:
            lo = mid
    return 0.5 * (lo + hi) if feasible else math.inf


def _normalized_support(opt, geometry):
    """EVAL of the support function of (K - x0)/R, in [0, 1] on the unit
    ball, from OPT of K: a stacked f for the epigraph body."""
    return support_eval_from_opt(_normalized_opt(opt, geometry), geometry.rescaled())


@pytest.mark.parametrize("n", [2, 3])
def test_epigraph_eval_rows_match_single_calls_the_reference_and_counts(n):
    # over the normalized support function of a body, a stack bisects
    # every row in lockstep and gets, bitwise, the single calls and the
    # per-point bisection, at exactly iters MEM queries per row
    gen = np.random.default_rng(50 + n)
    Y = gen.normal(size=(30, n))
    Y *= gen.uniform(0.0, 1.0, size=(30, 1)) / np.linalg.norm(Y, axis=1, keepdims=True)
    Y[3] = -0.0
    Y[4] = unit(Y[4])
    for spec in (BoxBody(np.array([1.5, -0.5, 0.75][:n]), 0.5), Simplex(n)):
        kf = EpigraphBody(_normalized_support(ExactOptimization(spec), spec.geometry), n)
        for delta in (1e-6, 1e-3, 0.02):
            ledger = QueryLedger()
            ev = eval_from_mem_epigraph(wrap_with_ledger(kf.as_mem(), ledger), n)
            values = ev.rows(Y, delta)
            assert ledger.count(MEM) == math.ceil(math.log2(2.0 / delta)) * len(Y)
            np.testing.assert_array_equal(values, [ev(y, delta) for y in Y])
            np.testing.assert_array_equal(
                values, [_reference_epigraph_eval(kf.as_mem(), y, delta) for y in Y])
            assert np.all(np.isfinite(values))


def test_eval_from_mem_epigraph_rejects_outside_unit_ball():
    body = EpigraphBody(_quadratic_eval, 2)
    ledger = QueryLedger()
    ev = eval_from_mem_epigraph(wrap_with_ledger(body.as_mem(), ledger), 2)
    with pytest.raises(ValueError, match="unit ball"):
        ev(np.array([1.5, 0.0]), 1e-4)
    # one row past the unit ball refuses the whole stack before any MEM query
    with pytest.raises(ValueError, match="unit ball"):
        ev.rows(np.array([[0.2, 0.1], [0.0, 0.0], [0.8, 0.7]]), 1e-4)
    assert ledger.totals() == {}


def test_eval_from_mem_epigraph_asks_its_precision_without_a_floor():
    # at delta 1e-14 every MEM query is asked at delta / (4 iters), about
    # 5e-17, and a linear f is still recovered within 2 delta
    a = np.array([0.3, -0.4])
    f = lambda y: 0.5 + float(a @ y)
    deltas = []

    def mem(point, delta):
        deltas.append(delta)
        return INSIDE if f(2.0 * point[:-1]) <= 4.0 * point[-1] else OUTSIDE

    mem.kind = MEM
    delta = 1e-14
    iters = math.ceil(math.log2(2.0 / delta))
    y = np.array([0.6, 0.2])
    assert abs(eval_from_mem_epigraph(mem, 2)(y, delta) - f(y)) <= 2.0 * delta
    assert deltas == [delta / (4.0 * iters)] * iters


@pytest.mark.parametrize("plain", [False, True], ids=["as_mem", "plain_mem"])
def test_epigraph_eval_and_grad_refuse_a_point_of_another_dimension(plain):
    # y in R^2 for an f on R^3 is refused at entry, before any MEM query,
    # also over a MEM that would answer points of any size
    body = EpigraphBody(_quadratic_eval, 3)
    mem = body.as_mem()
    if plain:
        mem = lambda point, delta: OUTSIDE
        mem.kind = MEM
    ledger = QueryLedger()
    counted = wrap_with_ledger(mem, ledger)
    ev = eval_from_mem_epigraph(counted, 3)
    for oracle in (ev, grad_from_sep_epigraph(ExactSeparationEpigraph(body), 3, counted)):
        with pytest.raises(ValueError, match="dimension 3"):
            oracle(np.array([0.2, 0.1]), 0.25)
    assert ledger.count(MEM) == 0
    if plain:
        # a point where MEM never answers INSIDE evaluates to +inf
        assert ev(np.array([0.2, 0.1, 0.0]), 0.25) == math.inf


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


@pytest.mark.parametrize("spec", [Simplex(2), Simplex(4), Ball(np.array([3.0, 0.0]), 1.0),
                                  BoxBody(np.array([0.3, -2.0, 1.0]), 0.5)],
                         ids=["simplex2", "simplex4", "off_origin_ball", "off_origin_box"])
def test_eval_support_from_val_brackets_around_the_centre(spec):
    # a [0, R||c||] bracket read 0.765 and 0.882 for the simplices' support
    # 1 at c = e_1, and 1 for the ball's 4: it ignored the centre
    ev = eval_support_from_val(ExactValidity(spec), spec.geometry)
    C = np.vstack([np.eye(spec.dim), np.random.default_rng(8).normal(size=(20, spec.dim))])
    for delta in (1e-3, 1e-6):
        err = np.abs(ev.rows(C, delta) - [spec.support(c)[0] for c in C])
        # the final half-width: R||c|| / 2^iters <= r||c|| delta / 2
        assert np.all(err <= spec.geometry.r * np.linalg.norm(C, axis=1) * delta)


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
    lo = float(c @ g.center)
    hi = lo + g.R * c_norm
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


def test_support_eval_has_rows_over_any_oracle():
    # every view answers stacks, and over a plain inner oracle its rows
    # give the per-row answers, bitwise those over the exact stack form
    spec = BoxBody(np.array([0.3, -0.2]), 1.0)
    g = spec.geometry
    plain_opt = lambda c, d: ExactOptimization(spec)(c, d)
    plain_val = lambda c, gamma, d: ExactValidity(spec)(c, gamma, d)
    plain_opt.kind, plain_val.kind = OPT, VAL
    C = np.random.default_rng(15).normal(size=(6, 2))
    C[1] = 0.0
    gammas = np.linspace(-1.0, 2.0, 6)
    for opt, val in ((plain_opt, plain_val), (ExactOptimization(spec), ExactValidity(spec))):
        nopt = _normalized_opt(opt, g)
        views = [support_eval_from_opt(opt, g), eval_support_from_val(val, g),
                 support_eval_from_opt(nopt, g.rescaled())]
        for ev in views:
            np.testing.assert_array_equal(ev.rows(C, 1e-6), [ev(c, 1e-6) for c in C])
        nval = _normalized_val(val, g)
        assert nval.rows(C, gammas, 1e-6).tolist() == [
            nval(c, gamma, 1e-6) is ValidityAnswer.SOME_ABOVE for c, gamma in zip(C, gammas)]
        np.testing.assert_array_equal(nopt.rows(C, 1e-6), [nopt(c, 1e-6).maximizer for c in C])
    np.testing.assert_array_equal(support_eval_from_opt(plain_opt, g).rows(C, 1e-6),
                                  support_eval_from_opt(ExactOptimization(spec), g).rows(C, 1e-6))


def test_normalized_views_answer_for_the_scaled_body():
    # on a box off the origin, OPT of (K - x0)/R maps each maximizer y of
    # K to (y - x0)/R, and VAL of it thresholds that point's value; a
    # single call is its stack of one, and a c of another dimension is
    # refused before the base oracle is asked
    spec = BoxBody(np.array([1.5, -0.5, 0.75]), 0.5)
    g = spec.geometry
    C = np.random.default_rng(16).normal(size=(5, 3))
    C[3] = 0.0
    ledger = QueryLedger()
    nopt = _normalized_opt(wrap_with_ledger(ExactOptimization(spec), ledger), g)
    nval = _normalized_val(wrap_with_ledger(ExactValidity(spec), ledger), g)
    Y = nopt.rows(C, 1e-6)
    np.testing.assert_array_equal(Y, (ExactOptimization(spec).rows(C, 1e-6) - g.center) / g.R)
    values = np.vecdot(C, Y)
    for gap, expected in ((-1e-9, True), (1e-9, False)):
        np.testing.assert_array_equal(nval.rows(C, values + gap, 1e-6), expected)
    for i, c in enumerate(C):
        np.testing.assert_array_equal(nopt(c, 1e-6).maximizer, Y[i])
        assert nval(c, values[i] - 1e-9, 1e-6) is ValidityAnswer.SOME_ABOVE
        assert nval(c, values[i] + 1e-9, 1e-6) is ValidityAnswer.ALL_BELOW
    asked = ledger.totals()
    for bad in (np.ones(2), np.ones(4)):
        with pytest.raises(ValueError, match="dimension 3"):
            nopt(bad, 1e-6)
        with pytest.raises(ValueError, match="dimension 3"):
            nval(bad, 0.5, 1e-6)
    assert ledger.totals() == asked


def _counted_views(spec, ledger):
    """The six stack-form views whose single query `core.single_of`
    builds, and `grad_conjugate_from_opt`, each over ledger-counted
    exact oracles of `spec`, with the extra arguments of one single
    query."""
    g = spec.geometry
    counted = lambda make: wrap_with_ledger(make(spec), ledger)
    height = HeightOracle(counted(ExactMembership), g, np.full(g.n, 0.5), 1e-6, 0.01)
    kf = EpigraphBody(_normalized_support(counted(ExactOptimization), g), g.n)
    return {
        "support_eval_from_opt": (support_eval_from_opt(counted(ExactOptimization), g), ()),
        "eval_support_from_val": (eval_support_from_val(counted(ExactValidity), g), ()),
        "normalized_val": (_normalized_val(counted(ExactValidity), g), (0.5,)),
        "normalized_opt": (_normalized_opt(counted(ExactOptimization), g), ()),
        "height_as_eval": (height.as_eval(), ()),
        "eval_from_mem_epigraph": (
            eval_from_mem_epigraph(wrap_with_ledger(kf.as_mem(), ledger), g.n), ()),
        "grad_conjugate_from_opt": (grad_conjugate_from_opt(counted(ExactOptimization), g), ()),
    }


@pytest.mark.parametrize("view", ["support_eval_from_opt", "eval_support_from_val",
                                  "normalized_val", "normalized_opt", "height_as_eval",
                                  "eval_from_mem_epigraph", "grad_conjugate_from_opt"])
def test_views_refuse_a_query_of_another_dimension_before_any_base_query(view):
    spec = Simplex(3)
    ledger = QueryLedger()
    oracle, extra = _counted_views(spec, ledger)[view]
    for bad in (np.ones(2), np.ones(4)):
        with pytest.raises(ValueError, match="expected a vector of dimension 3"):
            oracle(bad, *extra, 0.01)
    assert ledger.totals() == {}
    # a query of the right dimension does reach the base oracle
    oracle(np.full(3, 0.1), *extra, 0.01)
    assert sum(ledger.totals().values()) > 0


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
        inner_delta = delta / (g.kappa * iters)
        expected = []
        for c in C[C.any(axis=1)]:
            lo = float(c @ g.center)
            hi = lo + g.R * float(np.linalg.norm(c))
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
    opt = opt_from_mem(ExactMembership(spec), spec.geometry, RandomStream(5), eps=1e-3)
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
                           RandomStream(700 + k).child("sep"), eps=eps)
        value = float(c @ opt(c, eps).maximizer)
        # the experiment harness's tolerance for a graded OPT answer
        tol = eps * (1.0 + body.geometry.kappa)
        best = [body.support(c)[0]]
        if isinstance(body, HPolytope):
            best.append(brute_force_lp(body, c)[0])
        sound += all(b - value <= tol for b in best)
        mem += opt.ledgers.mem.count(MEM)
        sep += opt.ledgers.sep.count(SEP)
    # criterion 5(b)'s rate for SEP built from MEM, here at the chain's
    # own inner precision, inner_sep_eps(eps), not 5(b)'s eps * 1e-2
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
    # c / ||c|| has norm 1 + 2^-52 here, a last bit past the unit sphere
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


@pytest.mark.parametrize("c", [np.zeros(5), np.ones(5)], ids=["zero", "ones"])
def test_opt_from_val_refuses_an_objective_of_another_dimension_before_any_query(c):
    # the zero objective of another dimension used to get the 2-d centre
    spec = BoxBody(np.zeros(2), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6), eps=0.02)
    with pytest.raises(ValueError, match="expected a vector of dimension 2"):
        opt(c, 0.02)
    for ledger in (opt.ledgers.val, opt.ledgers.mem, opt.ledgers.sep):
        assert ledger.totals() == {}


@pytest.mark.parametrize("chain, base", [(opt_from_mem, ExactMembership),
                                         (opt_from_val, ExactValidity),
                                         (sep_from_opt, ExactOptimization)],
                         ids=["opt_from_mem", "opt_from_val", "sep_from_opt"])
def test_each_chain_takes_eps_as_a_required_keyword(chain, base):
    spec = BoxBody(np.zeros(2), 1.0)
    with pytest.raises(TypeError, match="eps"):
        chain(base(spec), spec.geometry, RandomStream(6))
    with pytest.raises(TypeError):
        chain(base(spec), spec.geometry, RandomStream(6), 0.02)


def test_opt_from_val_bisects_the_support_and_spends_one_sep(monkeypatch):
    # h~(u) is bisected from VAL, ceil(log2(2 kappa/d)) queries; SEP of
    # the polar body is asked once, and every MEM of it is one VAL query
    # asked inside that SEP
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
    rounds = math.ceil(math.log2(2.0 * spec.geometry.kappa / 0.02))
    for c in ([1.0, 0.3], [-0.2, 1.0], [-1.0, -0.7]):
        before = opt.ledgers.val.count(VAL), opt.ledgers.mem.count(MEM)
        mem_in_sep.clear()
        opt(np.array(c), 0.02)
        val = opt.ledgers.val.count(VAL) - before[0]
        mem = opt.ledgers.mem.count(MEM) - before[1]
        assert mem_in_sep == [mem] and mem > 0
        assert val == rounds + mem
    assert opt.ledgers.sep.count(SEP) == 3


@pytest.mark.parametrize("make", [lambda n: BoxBody(np.zeros(n), 1.0), Simplex],
                         ids=["box", "simplex"])
@pytest.mark.parametrize("n", [2, 3])
def test_opt_from_val_asks_one_val_per_polar_mem(make, n):
    # the bisection's rounds, one VAL per MEM of the polar body and one
    # SEP of it, plus the radius check where h~(u) > 1 - 2^-rounds; at eps
    # 0.02, each answer within the chain's tolerance
    spec = make(n)
    g = spec.geometry
    rounds = math.ceil(math.log2(2.0 * g.kappa / 0.02))
    for seed in range(3):
        rng = RandomStream(seed)
        c = unit(rng.child("c").generator().normal(size=n))
        opt = opt_from_val(ExactValidity(spec), spec.geometry, rng.child("chain"),
                           eps=0.02, sep_eps=1e-4)
        gap = spec.support(c)[0] - float(c @ opt(c, 0.02).maximizer)
        assert abs(gap) <= 3.0 * 0.02 * (1.0 + g.kappa)
        topped = (spec.support(c)[0] - float(c @ g.center)) / g.R > 1.0 - 2.0 ** -rounds
        val, mem = opt.ledgers.val.count(VAL), opt.ledgers.mem.count(MEM)
        assert val == rounds + mem + topped and mem > 0
        assert opt.ledgers.sep.count(SEP) == 1


def test_opt_from_val_checks_the_stated_radius_when_the_bisection_tops_out():
    # on the ball h~(u) = 1: every bisection answer reads SOME_ABOVE, one
    # more VAL at threshold 1 + d finds the body inside its radius, and
    # the polar point lies past kappa = 1, where SepFromMem cuts along u
    # at once: the maximizer is u h~/(1 + d), h~ = 1 - 2^-(rounds + 1)
    spec = Ball(np.zeros(3), 1.0)
    opt = opt_from_val(ExactValidity(spec), spec.geometry, RandomStream(6), eps=0.02)
    c = np.array([0.3, -1.0, 0.5])
    rounds = math.ceil(math.log2(2.0 / 0.02))
    x = opt(c, 0.02).maximizer
    assert opt.ledgers.val.count(VAL) == rounds + 2
    assert (opt.ledgers.mem.count(MEM), opt.ledgers.sep.count(SEP)) == (1, 1)
    np.testing.assert_allclose(x, unit(c) * (1.0 - 2.0 ** -(rounds + 1)) / 1.02)


def test_opt_from_val_refuses_a_body_past_its_stated_radius():
    # Ball(0, 3) stated with R = 1: the normalized support reaches 3, so
    # every bisection answer reads SOME_ABOVE, and the VAL at threshold
    # 1 + d proves the body out of the unit ball
    spec = Ball(np.zeros(2), 3.0)
    opt = opt_from_val(ExactValidity(spec), ProblemGeometry(2, 1.0, 1.0), RandomStream(6),
                       eps=0.02, sep_eps=1e-4)
    with pytest.raises(ValueError, match="past its stated outer radius"):
        opt(np.array([1.0, 0.3]), 0.02)
    assert opt.ledgers.sep.totals() == {}


def test_opt_from_val_raises_when_the_polar_point_reads_inside():
    # a VAL that answers for the unit ball along unit directions but for
    # B(0, 1/2) past them: the bisection reads h~(u) = 1, and the polar
    # point (1 + d) u, which must lie outside the polar body, reads inside
    def val(c, gamma, delta):
        c = np.asarray(c, dtype=float)
        scale = 1.0 if np.linalg.norm(c) <= 1.0 + 1e-12 else 0.5
        return (ValidityAnswer.SOME_ABOVE if scale * np.linalg.norm(c) > gamma
                else ValidityAnswer.ALL_BELOW)

    val.kind = VAL
    opt = opt_from_val(val, ProblemGeometry(2, 1.0, 1.0), RandomStream(6), eps=0.02)
    with pytest.raises(OracleInconsistency, match="reads inside"):
        opt(np.array([1.0, 0.3]), 0.02)
    assert opt.ledgers.sep.count(SEP) == 1


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


def test_sep_from_opt_refuses_a_query_of_another_dimension_before_any_opt_query():
    spec = Ball(np.zeros(2), 1.0)
    sep = sep_from_opt(ExactOptimization(spec), spec.geometry,
                       RandomStream(7), eps=0.02, sep_eps=1e-4)
    with pytest.raises(ValueError, match="expected a vector of dimension 2"):
        sep(np.array([5.0]), 0.02)
    for ledger in (sep.ledgers.opt, sep.ledgers.mem, sep.ledgers.sep):
        assert ledger.totals() == {}


def test_both_engines_and_opt_from_mem_answer_the_zero_objective_with_the_centre():
    # both engines used to raise "cannot normalize the zero vector" at c = 0
    spec = Simplex(3, 2.0)
    ledger = QueryLedger()
    sep = wrap_with_ledger(ExactSeparation(spec), ledger)
    cfg = OptimizerConfig(eps=1e-3)
    for engine in (optimize_linear, optimize_linear_accpm):
        answer = engine(cfg, sep, spec.geometry, np.zeros(3))
        np.testing.assert_array_equal(answer.maximizer, spec.geometry.center)
        assert answer.maximizer is not spec.geometry.center
    assert ledger.totals() == {}
    opt = opt_from_mem(ExactMembership(spec), spec.geometry, RandomStream(0), eps=1e-3)
    np.testing.assert_array_equal(opt(np.zeros(3), 1e-3).maximizer, spec.geometry.center)
    assert opt.ledgers.sep.totals() == {} and opt.ledgers.mem.totals() == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sep_from_opt_over_an_engine_backed_opt_cuts_soundly(seed):
    # the first analytic centre of sep_from_opt's engine is the
    # epigraph's centre, whose support evaluation asks OPT(0): over an
    # engine every query used to raise
    spec = BoxBody(np.zeros(2), 1.0)
    cfg = OptimizerConfig(eps=1e-3)

    def opt(c, delta):
        return optimize_linear(cfg, ExactSeparation(spec), spec.geometry, c)

    opt.kind = OPT
    rng = RandomStream(seed)
    sep = sep_from_opt(opt, spec.geometry, rng.child("chain"), eps=0.02)
    direction = unit(rng.child("query").generator().normal(size=2))
    h = sep(1.5 * spec.radial_scale(direction) * direction, 0.02).halfspace
    assert h is not None
    assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + h.slack + 1e-12


@pytest.mark.parametrize("y", [[1.5, 0.0], [1.01, 0.0], [0.3, 0.2]],
                         ids=["cut", "band", "inside"])
def test_sep_from_opt_answers_a_repeated_query_alike_whatever_rng(y):
    # the polar route draws no randomness: a query asked again, of the
    # same chain or of one built on another stream, gets the same bytes
    # for the same counts
    spec = Ball(np.zeros(2), 1.0)
    replies = []
    for seed in (7, 7, 8):
        sep = sep_from_opt(ExactOptimization(spec), spec.geometry, RandomStream(seed),
                           eps=0.02, sep_eps=1e-4)
        for _ in range(2):
            before = {name: ledger.totals() for name, ledger in vars(sep.ledgers).items()}
            answer = sep(np.array(y), 0.02)
            after = {name: ledger.totals() for name, ledger in vars(sep.ledgers).items()}
            spent = {name: {kind: count - before[name].get(kind, 0)
                            for kind, count in totals.items()}
                     for name, totals in after.items()}
            replies.append((_reply(answer), spent))
    assert all(reply == replies[0] for reply in replies)


def test_chain_round_trip_mem_sep_opt_val():
    # MEM -> SEP -> OPT -> EVAL(1_K*) -> VAL must still classify
    # thresholds correctly on the ball
    spec = Ball(np.zeros(2), 1.0)
    opt = opt_from_mem(ExactMembership(spec), spec.geometry, RandomStream(8), eps=1e-3)
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
    """The oracle behind a plain wrapper that has no stack form, which
    `core.rows_of` asks one query per row."""
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


_SEP_FROM_OPT_BODIES = pytest.mark.parametrize(
    "make", [lambda n: Ball(np.zeros(n), 1.0), lambda n: BoxBody(np.zeros(n), 1.0), Simplex,
             lambda n: BoxBody(np.array([1.5, -0.5, 0.75][:n]), 0.5)],
    ids=["ball", "box", "simplex", "shifted_box"])


@_SEP_FROM_OPT_BODIES
@pytest.mark.parametrize("n", [2, 3])
def test_sep_from_opt_answers_inside_and_cuts_soundly(make, n):
    # The chain runs on the body translated to its centre, where the
    # normalized support function stays in [0, 1]: Simplex(2)'s, taken
    # about the origin, reached 1/R = 1.31 at c = e_i and ended in the
    # epigraph's range check.
    spec = make(n)
    C = np.random.default_rng(0).normal(size=(256, n))
    C /= np.linalg.norm(C, axis=1)[:, None]
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
        # "inside" means dist(y, K) <= 6 eps R = 0.12 R: at these scales
        # some queries fall in that band and some beyond it, and the
        # first witness above the threshold must still cut soundly
        for scale in (1.1, 1.25):
            h = sep(at(scale), 0.02).halfspace
            if h is not None:
                assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + 1e-9
            else:
                # max over unit c of <c, y> - h_K(c) is dist(y, K)
                dist_below = float(np.max(C @ at(scale) - spec.support_rows(C)[0]))
                assert dist_below <= 6.0 * 0.02 * spec.geometry.R


def _sep_from_opt_reply(spec, seed, scale):
    """sep_from_opt's reply and stage ledgers at centre + scale * (radial
    distance) along a seeded direction."""
    rng = RandomStream(seed)
    u = unit(rng.child("dir").generator().normal(size=spec.dim))
    sep = sep_from_opt(ExactOptimization(spec), spec.geometry, rng.child("chain"),
                       eps=0.02, sep_eps=1e-4)
    answer = sep(spec.geometry.center + scale * spec.radial_scale(u) * u, 0.02)
    return answer, {name: ledger.totals() for name, ledger in vars(sep.ledgers).items()}


def _engine_without_exit(monkeypatch):
    """Make sep_from_opt's engine run to its certificate, whatever gamma."""
    engine = reductions.optimize_linear_accpm
    monkeypatch.setattr(reductions, "optimize_linear_accpm",
                        lambda cfg, sep, geometry, c, gamma=math.inf: engine(cfg, sep, geometry, c))


@_SEP_FROM_OPT_BODIES
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale, inside", [(0.5, True), (1.5, False)], ids=["inside", "outside"])
def test_sep_from_opt_decides_as_the_engine_run_to_its_certificate(make, n, scale, inside,
                                                                   monkeypatch):
    # the exit cuts the full run short at its first witness, so an
    # inside reply is the full run's, query for query, and a cut asks at
    # most what the full run asks at every stage
    spec = make(n)
    for seed in range(3):
        answer, counts = _sep_from_opt_reply(spec, seed, scale)
        with monkeypatch.context() as patch:
            _engine_without_exit(patch)
            full_answer, full_counts = _sep_from_opt_reply(spec, seed, scale)
        assert answer.inside is full_answer.inside is inside
        if inside:
            assert _reply(answer) == _reply(full_answer)
            assert counts == full_counts
        for stage, totals in counts.items():
            for kind, count in totals.items():
                assert count <= full_counts[stage][kind], (stage, kind)


def test_sep_from_opt_answers_at_the_finer_of_eps_and_delta():
    # 1.01 u lies 0.01 outside the unit disc: inside the band of the
    # chain's eps 0.02, beyond that of delta 1e-3
    spec = Ball(np.zeros(2), 1.0)
    sep = sep_from_opt(ExactOptimization(spec), spec.geometry, RandomStream(7), eps=0.02)
    y = 1.01 * unit(np.array([0.6, -0.8]))
    assert sep(y, 0.02).inside
    h = sep(y, 1e-3).halfspace
    assert h is not None
    assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + 1e-12


def _short_opt(spec):
    """OPT of spec that answers a full delta short: the exact maximizer
    moved delta against c, so c . x reads h(c) - delta ||c||."""
    base = ExactOptimization(spec)

    def opt(c, delta):
        x = base(c, delta).maximizer
        return OptimizationAnswer(x - delta * unit(c) if c.any() else x)

    opt.kind = OPT
    return opt


@pytest.mark.parametrize("make", [lambda n: Ball(np.zeros(n), 1.0),
                                  lambda n: BoxBody(np.zeros(n), 1.0), Simplex],
                         ids=["ball", "box", "simplex"])
@pytest.mark.parametrize("n", [2, 3])
def test_sep_from_opt_over_an_opt_a_full_sep_eps_short_cuts_soundly(make, n):
    # SEP of the polar body then reads inside some c outside it, and a
    # witness keeps K only past the margin derived from sep_eps
    spec = make(n)
    sep_eps, cuts = 0.02, 0
    for seed in range(10):
        rng = RandomStream(seed)
        u = unit(rng.child("dir").generator().normal(size=n))
        sep = sep_from_opt(_short_opt(spec), spec.geometry, rng.child("chain"),
                           eps=0.01, sep_eps=sep_eps)
        for scale in (1.005, 1.02, 1.05, 1.1, 1.5):
            y = spec.geometry.center + scale * spec.radial_scale(u) * u
            h = sep(y, 1e-3).halfspace
            if h is not None:
                cuts += 1
                assert spec.support(h.normal)[0] <= float(h.normal @ h.anchor) + 1e-12
    assert cuts >= 20
