"""Correspondences between set oracles and function oracles.

Three identifications carry the whole web:

* indicator function ``1_K`` (0 on the set, +inf outside): evaluating it
  is membership, taking its subgradient is separation;
* support function ``1_K*(c) = max_{x in K} <c, x>``: evaluating it is a
  single optimization query, and its subgradient is the maximizer;
* epigraph body ``K_f = {(x/2, t/4) : ||x|| <= 1, f(x) <= t <= 2}`` for a
  convex f on the unit ball with values in [0, 1]: membership in K_f is
  one evaluation of f, and conversely f can be recovered from K_f by
  bisection along the t axis.

Composing these with the membership-to-separation estimator and the
cutting-plane optimizer yields every pairwise reduction among the set
oracles; the composed constructors at the bottom of this module package
the useful chains.  Each step asks the cheapest oracle that answers it:
`opt_from_val` evaluates f through the MEM of K_f, one f evaluation per
query, and asks SEP of K_f only for the one cut below the graph that
carries the subgradient.  `opt_from_val` and `sep_from_opt` run on the
body translated to its centre, where the normalized support function
is 1-Lipschitz and in [0, 1].  `sep_from_opt` optimizes over K_f with
the analytic-centre engine (`accpm`), which stops once its certificate
holds; `opt_from_mem` keeps the ellipsoid (see `accpm` for why).

Stack forms.  `support_eval_from_opt`, `eval_support_from_val` and
`EpigraphBody.membership_rows` answer a (k, n) stack of queries, and a
single call is the stack form on a stack of one.  They ask an inner
oracle with a `rows` form (the exact oracles) once per stack, and any
other (`amplify`'s voters, plain callables) one row at a time, in row
order; the VAL form bisects its thresholds in lockstep.  They offer a
`rows` attribute only over an inner `rows` form, and so does
`EpigraphBody.as_mem` its `alpha_bisect_rows` fast path, which bisects
the 2(n+1) rows of a subgradient estimate in lockstep, one stacked OPT
or VAL query per round for the rows still bisecting: lockstep never
reorders the queries of a randomized oracle.  Answers and query counts
equal the row-by-row path's, with two exceptions.  SEP-from-MEM's
recentring maps a stack's base points and direction separately, so a
bisection point can differ from the row path's in the last bit, which
changes a membership answer only for a point within rounding of the
boundary.  And an f value outside the epigraph's range raises the range
check's ValueError on both paths, but the ledgers then count the
lockstep rounds run until then.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .core import (EVAL, GRAD, MEM, OPT, SEP, VAL, GradAnswer,
                   MembershipAnswer, OptimizationAnswer, ProblemGeometry,
                   QueryLedger, RandomStream, SeparationAnswer,
                   ValidityAnswer, check_precision, wrap_with_ledger)
from .accpm import optimize_linear_accpm
from .ellipsoid import OptimizerConfig, optimize_linear
from .geometry import HalfSpace, _halfspace, as_vector, unit
from .separation import SepFromMem

INSIDE = MembershipAnswer.INSIDE_DILATED
OUTSIDE = MembershipAnswer.OUTSIDE_ERODED

#: EVAL(1_K) answers are classified against this threshold: the indicator
#: only takes the values 0 and +inf, so any finite cutoff in between works;
#: 1/2 keeps maximal slack against evaluation noise on both sides.
INDICATOR_THRESHOLD = 0.5

#: Queries below the graph that `grad_from_sep_epigraph` makes, at
#: doubling depth, before it gives up on a nearly vertical cut.
VERTICAL_CUT_RETRIES = 3


class VerticalCut(RuntimeError):
    """The separating cut carried no slope information (c_t ~ 0)."""


class EmptyInteriorPropagated(RuntimeError):
    """An inner optimization oracle reported an empty interior."""


# ---------------------------------------------------------------------------
# indicator identifications: MEM(K) = EVAL(1_K), SEP(K) = GRAD(1_K)

def mem_from_eval_indicator(eval_oracle):
    def mem(y, delta):
        check_precision(delta)
        alpha = eval_oracle(y, delta)
        return INSIDE if alpha < INDICATOR_THRESHOLD else OUTSIDE

    mem.kind = MEM
    return mem


def eval_from_mem_indicator(mem):
    def eval_indicator(y, delta):
        check_precision(delta)
        return 0.0 if mem(y, delta).inside else math.inf

    eval_indicator.kind = EVAL
    return eval_indicator


def sep_from_grad_indicator(grad):
    def sep(y, delta):
        check_precision(delta)
        answer = grad(y, delta)
        if answer.value < INDICATOR_THRESHOLD:
            return SeparationAnswer()
        return SeparationAnswer(HalfSpace(unit(answer.subgrad), y, 0.0))

    sep.kind = SEP
    return sep


def grad_from_sep_indicator(sep):
    def grad(y, delta):
        check_precision(delta)
        answer = sep(y, delta)
        if answer.halfspace is None:
            return GradAnswer(0.0, np.zeros(np.size(as_vector(y))))
        return GradAnswer(math.inf, answer.halfspace.normal.copy())

    grad.kind = GRAD
    return grad


def mem_from_sep(sep):
    """Membership is separation with the certificate discarded."""

    def mem(y, delta):
        return INSIDE if sep(y, delta).halfspace is None else OUTSIDE

    mem.kind = MEM
    return mem


# ---------------------------------------------------------------------------
# epigraph body K_f

class EpigraphBody:
    """The scaled epigraph {(x/2, t/4) : ||x|| <= 1, f(x) <= t <= 2}.

    For any convex f on the unit ball with range inside [0, 1], the point
    c* = (0, 3/8) is deep inside: the scaled t coordinate ranges over
    [f/4, 1/2] ⊆ [0, 1/2], so c* sits at distance >= 1/8 from the graph
    and lid constraints and 1/2 from the ||x|| <= 1 wall, while every
    point of the body is within 0.625 of c*.  This certifies
    B(c*, 0.1) ⊆ K_f ⊆ B(c*, 0.625) with kappa = 6.25 regardless of f.
    (No ball around the origin fits: points with negative t coordinate
    are always outside when f >= 0.)  The range requirement is enforced
    lazily: every evaluation answer is checked.
    """

    INNER_RADIUS = 0.1
    OUTER_RADIUS = 0.625
    CENTER_T = 0.375
    RANGE_SLACK = 0.25

    def __init__(self, f_eval, dim: int):
        self.f_eval = f_eval
        self.dim = dim
        center = np.append(np.zeros(dim), self.CENTER_T)
        self.geometry = ProblemGeometry(dim + 1, self.INNER_RADIUS,
                                        self.OUTER_RADIUS, center)

    def membership(self, point, delta):
        """MEM(K_f) at one point: `membership_rows` on a stack of one."""
        point = as_vector(point)
        if point.size != self.dim + 1:
            raise ValueError("epigraph point must live in R^{n+1}")
        return INSIDE if self.membership_rows(point[None, :], delta)[0] else OUTSIDE

    def membership_rows(self, P: np.ndarray, delta) -> np.ndarray:
        """Membership of every row of the float64 (k, n+1) stack P, taken
        as given, as a bool array (True for INSIDE).  f is evaluated at
        the rows that pass the cylinder and lid gate: in one stacked call
        when f_eval has a `rows(X, delta)` form, otherwise one row at a
        time, in row order.  Every f value is range-checked."""
        check_precision(delta)
        X = 2.0 * P[:, :-1]
        t = 4.0 * P[:, -1]
        # a delta-ball around the query maps to at most a 4*delta margin
        # in the unscaled (x, t) coordinates
        margin = 4.0 * delta
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(X, X))
        gate = (norms <= 1.0 + margin) & (t <= 2.0 + margin)
        inside = np.zeros(P.shape[0], dtype=bool)
        if gate.any():
            # x / max(||x||, 1) is x itself inside the unit ball
            query = X[gate] / np.maximum(norms[gate], 1.0)[:, None]
            f_rows = getattr(self.f_eval, "rows", None)
            if f_rows is not None:
                values = f_rows(query, delta / 10.0)
            else:
                values = np.array([float(self.f_eval(x, delta / 10.0)) for x in query])
            bad = ~((values >= -self.RANGE_SLACK) & (values <= 1.0 + self.RANGE_SLACK))
            if bad.any():
                raise ValueError(
                    f"epigraph construction requires values in [0, 1]; got {values[bad][0]}")
            inside[gate] = values <= t[gate] + margin
        return inside

    def alpha_bisect_rows(self, D, x, hi, iters, delta):
        """The membership bisection for max{a : D[i] + a*x in K_f} at
        every row of D, in lockstep through `kernels.bisect_rows`: one
        `membership_rows` test of the rows still bisecting per round."""
        return kernels.bisect_rows(lambda P: self.membership_rows(P, delta), D, x, hi, iters)

    def as_mem(self):
        """MEM view of the body.  When f_eval has a `rows` stack form it
        carries the `alpha_bisect_rows` fast path, so a height estimate
        over it bisects in lockstep with one stacked f query per round.
        Over any other f_eval it has none, and a height estimate bisects
        its rows one after another, one f query per membership test: the
        draws of a randomized f stay where they were."""
        def mem(point, delta):
            return self.membership(point, delta)

        mem.kind = MEM
        if hasattr(self.f_eval, "rows"):
            mem.alpha_bisect_rows = self.alpha_bisect_rows
        return mem


def eval_from_mem_epigraph(mem_kf, dim: int):
    """EVAL(f) from MEM(K_f) by bisecting the smallest feasible t."""

    def eval_f(y, delta):
        check_precision(delta)
        y = as_vector(y)
        if np.linalg.norm(y) > 1.0:
            raise ValueError("evaluation point must lie in the unit ball")
        iters = math.ceil(math.log2(2.0 / delta))
        inner_delta = max(delta / (4.0 * iters), 1e-15)
        u = 0.5 * y
        lo, hi = 0.0, 2.0
        feasible = False
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            point = np.append(u, mid / 4.0)
            if mem_kf(point, inner_delta).inside:
                feasible = True
                hi = mid
            else:
                lo = mid
        if not feasible:
            return math.inf
        return 0.5 * (lo + hi)

    eval_f.kind = EVAL
    return eval_f


def grad_from_sep_epigraph(sep_kf, dim: int, mem_kf=None, lipschitz: float = math.inf):
    """GRAD(f) from SEP(K_f), and MEM(K_f) when there is one.

    Evaluates f(y) by bisecting the t axis with `eval_from_mem_epigraph`
    over `mem_kf`, or, without one, over the separation oracle's
    membership side (`mem_from_sep`), so that GRAD from SEP alone keeps
    its meaning.  Then makes the one separation query of the reduction,
    just below the graph at (y/2, (alpha - depth)/4), and unpacks the
    returned halfspace normal (c_x, c_t) into the subgradient
    -2 c_x / c_t.  A cut that carries no slope information is retried
    at doubled depth, and after `VERTICAL_CUT_RETRIES` queries the
    reduction gives up with `VerticalCut`.  A cut counts as such when it
    is nearly vertical (|c_t| < 1e-9) or, for an f the caller knows to
    be `lipschitz`-Lipschitz, when the subgradient is steeper than that:
    at ||y|| = 1 the body's cylinder wall puts horizontal normals in the
    normal cone, and no bound on f's slope follows from K_f alone.
    """
    eval_f = eval_from_mem_epigraph(mem_from_sep(sep_kf) if mem_kf is None else mem_kf, dim)

    def grad(y, delta):
        check_precision(delta)
        y = as_vector(y)
        alpha = eval_f(y, delta)
        if not math.isfinite(alpha):
            raise ValueError("cannot take a subgradient where f is infinite")
        depth = delta
        for _ in range(VERTICAL_CUT_RETRIES):
            point = np.append(0.5 * y, (alpha - depth) / 4.0)
            answer = sep_kf(point, delta / 10.0)
            h = answer.halfspace
            if h is not None and abs(h.normal[-1]) >= 1e-9:
                subgrad = -2.0 * h.normal[:-1] / h.normal[-1]
                if np.linalg.norm(subgrad) <= lipschitz:
                    return GradAnswer(alpha, subgrad)
            depth *= 2.0
        raise VerticalCut(
            f"no usable cut below the graph at depth {depth / 2.0}")

    grad.kind = GRAD
    return grad


# ---------------------------------------------------------------------------
# support function 1_K*

def support_eval_from_opt(opt, geometry: ProblemGeometry):
    """EVAL(1_K*) from one optimization query at precision delta/(3+kappa);
    `rows(C, delta)` evaluates a stack, over an opt with a `rows` form."""
    opt_rows = getattr(opt, "rows", None)

    def rows(C, delta):
        check_precision(delta)
        delta /= 3.0 + geometry.kappa
        if opt_rows is not None:
            Y = opt_rows(C, delta)
        else:
            answers = [opt(c, delta) for c in C]
            if any(answer.empty_interior for answer in answers):
                raise EmptyInteriorPropagated("support evaluation")
            Y = np.array([answer.maximizer for answer in answers])
        # vecdot of two contiguous rows is their c @ y
        return np.vecdot(C, Y)

    def eval_support(c, delta):
        return float(rows(as_vector(c)[None, :], delta)[0])

    eval_support.kind = EVAL
    if opt_rows is not None:
        eval_support.rows = rows
    return eval_support


def grad_conjugate_from_opt(opt, geometry: ProblemGeometry):
    """GRAD(1_K*): the subgradient of the support function is the maximizer."""

    def grad(c, delta):
        check_precision(delta)
        c = as_vector(c)
        answer = opt(c, delta / (3.0 + geometry.kappa))
        if answer.empty_interior:
            raise EmptyInteriorPropagated("support subgradient")
        y = answer.maximizer
        return GradAnswer(float(c @ y), y.copy())

    grad.kind = GRAD
    return grad


def val_from_eval_support(eval_support):
    """VAL(K) from one evaluation of the support function."""

    def val(c, gamma, delta):
        check_precision(delta)
        alpha = eval_support(c, delta)
        return (ValidityAnswer.ALL_BELOW if alpha <= gamma
                else ValidityAnswer.SOME_ABOVE)

    val.kind = VAL
    return val


def eval_support_from_val(val, geometry: ProblemGeometry):
    """EVAL(1_K*) from VAL(K) by bisection on the threshold gamma.

    The support value lies in [r||c||, R||c||] whenever B(0, r) is inside
    the body, so gamma is bracketed in [0, R||c||]; ceil(log2(2 kappa /
    delta)) validity queries per call.  `rows(C, delta)` bisects a
    stack in lockstep, one round of VAL queries at a time, over a val
    with a `rows` form.
    """
    val_rows = getattr(val, "rows", None)

    def above(C, gammas, delta):
        if val_rows is not None:
            return val_rows(C, gammas, delta)
        return np.array([val(c, gamma, delta) is ValidityAnswer.SOME_ABOVE
                         for c, gamma in zip(C, gammas)])

    def rows(C, delta):
        check_precision(delta)
        out = np.zeros(C.shape[0])
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(C, C))
        nonzero = np.flatnonzero(norms != 0.0)
        if nonzero.size:
            C = C[nonzero]
            iters = math.ceil(math.log2(2.0 * geometry.kappa / delta))
            inner_delta = max(delta / (geometry.kappa * iters), 1e-15)
            lo, hi = np.zeros(nonzero.size), geometry.R * norms[nonzero]
            for _ in range(iters):
                mid = 0.5 * (lo + hi)
                some_above = above(C, mid, inner_delta)
                lo = np.where(some_above, mid, lo)
                hi = np.where(some_above, hi, mid)
            out[nonzero] = 0.5 * (lo + hi)
        return out

    def eval_support(c, delta):
        return float(rows(as_vector(c)[None, :], delta)[0])

    eval_support.kind = EVAL
    if val_rows is not None:
        eval_support.rows = rows
    return eval_support


def _normalized_support_eval(eval_support, geometry: ProblemGeometry):
    """Rescale 1_K* so its values land in [0, 1] on the unit ball.

    Precondition: `eval_support` evaluates the support function of a
    body centred at the origin, B(0, r) inside K inside B(0, R).  Then
    r||c|| <= 1_K*(c) <= R||c||, so dividing by R gives an admissible
    epigraph function, and a 1-Lipschitz one.  For a body off the
    origin the values can leave [0, 1], so both callers, `opt_from_val`
    and `sep_from_opt`, translate the body to its centre first
    (`_translated_val`, `_translated_opt`).
    """

    def f(c, delta):
        return eval_support(c, delta * geometry.R) / geometry.R

    f.kind = EVAL
    inner_rows = getattr(eval_support, "rows", None)
    if inner_rows is not None:
        f.rows = lambda C, delta: inner_rows(C, delta * geometry.R) / geometry.R
    return f


# ---------------------------------------------------------------------------
# composed chains

class _ChainLedgers:
    """Per-stage query ledgers, exposed for cost inspection."""

    def __init__(self, *names: str):
        for name in names:
            setattr(self, name, QueryLedger())


def opt_from_mem(mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, sep_eps: float, rho: float = 0.1):
    """OPT(K) = cutting-plane over SEP(K) built from MEM(K)."""
    ledgers = _ChainLedgers("mem", "sep")
    counted_mem = wrap_with_ledger(mem, ledgers.mem)
    sep = SepFromMem(counted_mem, geometry, rng, eps=sep_eps, rho=rho)
    counted_sep = wrap_with_ledger(sep, ledgers.sep)
    cfg = OptimizerConfig(eps=eps)

    def opt(c, delta):
        check_precision(delta)
        return optimize_linear(cfg, counted_sep, geometry, c)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def _support_epigraph_sep(eval_support, geometry: ProblemGeometry,
                          rng: RandomStream, *, sep_eps: float, rho: float, ledgers):
    """SEP and MEM of the epigraph body of the normalized support
    function, SEP built from MEM, with the MEM and SEP queries counted in
    `ledgers.mem` and `ledgers.sep`: the VAL -> OPT and OPT -> SEP chains
    both run on it.  Returns the body's geometry, the counted SEP oracle
    and the counted MEM oracle."""
    body = EpigraphBody(_normalized_support_eval(eval_support, geometry), geometry.n)
    counted_mem = wrap_with_ledger(body.as_mem(), ledgers.mem)
    sep = SepFromMem(counted_mem, body.geometry, rng, eps=sep_eps, rho=rho)
    return body.geometry, wrap_with_ledger(sep, ledgers.sep), counted_mem


def _translated_val(val, shift: np.ndarray):
    """VAL of K - x0 from VAL of K: c . (x - x0) <= gamma exactly when
    c . x <= gamma + c . x0.  It has a `rows` stack form only over a val
    with one."""
    val_rows = getattr(val, "rows", None)

    def translated(c, gamma, delta):
        # vecdot, as in the stack form, so both give the same threshold
        return val(c, gamma + float(np.vecdot(c, shift)), delta)

    translated.kind = VAL
    if val_rows is not None:
        translated.rows = lambda C, gammas, delta: val_rows(C, gammas + np.vecdot(C, shift), delta)
    return translated


def opt_from_val(val, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float, rho: float = 0.1):
    """OPT(K) from VAL(K).

    Chain: the base VAL is viewed as VAL of K - x0, with x0 the centre
    of `geometry`, so the rest runs on a body centred at the origin.  VAL
    recovers EVAL(1_K*) by bisection; the epigraph body K_f of the
    normalized support function f turns that into a membership oracle,
    and separation-from-membership gives SEP of K_f.  f is evaluated
    through the MEM of K_f, and the one SEP query just below the graph
    unpacks into a subgradient of f at c.  The subgradient of a support
    function is the maximizer of <c, x> over the body: x0 + R times it.
    On the centred body f is 1-Lipschitz, so a steeper subgradient is a
    cut that carries no slope information; the bound allows the chain's
    accuracy, three times its precision.
    """
    ledgers = _ChainLedgers("val", "mem", "sep")
    centred = ProblemGeometry(geometry.n, geometry.r, geometry.R)
    translated = _translated_val(wrap_with_ledger(val, ledgers.val), geometry.center)
    eval_support = eval_support_from_val(translated, centred)
    _, sep, mem = _support_epigraph_sep(eval_support, centred, rng.child("opt_from_val"),
                                        sep_eps=sep_eps, rho=rho, ledgers=ledgers)
    grad = grad_from_sep_epigraph(sep, geometry.n, mem, lipschitz=1.0 + 3.0 * eps)

    def opt(c, delta):
        check_precision(delta)
        c = as_vector(c)
        c_norm = float(np.linalg.norm(c))
        if c_norm == 0.0:
            return OptimizationAnswer(geometry.center.copy())
        direction = c / c_norm
        if np.linalg.norm(direction) > 1.0:
            # rounding left c / ||c|| a last bit outside the unit ball,
            # which eval_from_mem_epigraph refuses
            direction = c / np.nextafter(c_norm, math.inf)
        # the inner subgradient precision is floored at eps: the chain's
        # practical accuracy is set by the separation estimator anyway
        answer = grad(direction, max(delta, eps))
        return OptimizationAnswer(geometry.center + geometry.R * answer.subgrad)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def _translated_opt(opt, shift: np.ndarray):
    """OPT of K - x0 from OPT of K: the maximizers move by -x0.  It has a
    `rows` stack form only over an opt with one."""
    opt_rows = getattr(opt, "rows", None)

    def translated(c, delta):
        answer = opt(c, delta)
        if answer.empty_interior:
            return answer
        return OptimizationAnswer(answer.maximizer - shift)

    translated.kind = OPT
    if opt_rows is not None:
        translated.rows = lambda C, delta: opt_rows(C, delta) - shift
    return translated


def sep_from_opt(opt, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float, rho: float = 0.1):
    """SEP(K) from OPT(K).

    Chain: the base OPT is viewed as OPT of K - x0, with x0 the centre
    of `geometry`, and a query y as y - x0, so the rest runs on a body
    centred at the origin, where the normalized support function f is
    in [0, 1] on the unit ball.  OPT gives EVAL(f) directly.  With
    s = (y - x0)/R, the value v(c) = <s, c> - f(c) has its maximum over
    ||c|| <= 1 at dist(y, K)/R (the biconjugate 1_K** = 1_K, restricted
    to the unit ball).  At a point (c/2, t/4) of the epigraph body K_f,
    <(s, -2), .> is (<s, c> - t)/2, so the analytic-centre engine
    (`accpm.optimize_linear_accpm`) maximizes it over K_f through SEP
    of K_f.  A value <s, c> - t of at most 3 eps at the engine's answer
    reads as y in K; otherwise the direction c separates.

    The answer is feasible, t >= f(c) up to the epigraph's margins, so a
    value above 3 eps bounds v(c) above 0 and the cut through y keeps K
    whatever the engine's accuracy.  That accuracy decides which points
    count as inside, and it is derived from the same threshold: the
    engine's error in <s, c> - t is held to 3 eps, so "inside" means
    dist(y, K) <= 6 eps R, and every y farther out is cut.  The engine
    at precision eps' returns a point within eps' ||C|| (R_f + r_f) of
    the maximum of <C, .>, C = (s, -2), for K_f's radii R_f and r_f (up
    to the error of the SEP-from-MEM cuts it trusts), and <s, c> - t is
    2 <C, .>, so eps' = 3 eps / (2 ||C|| (R_f + r_f)).
    """
    ledgers = _ChainLedgers("opt", "mem", "sep")
    centred = ProblemGeometry(geometry.n, geometry.r, geometry.R)
    translated = _translated_opt(wrap_with_ledger(opt, ledgers.opt), geometry.center)
    eval_support = support_eval_from_opt(translated, centred)
    threshold = 3.0 * eps

    def sep(y, delta):
        check_precision(delta)
        y = as_vector(y)
        scaled = (y - geometry.center) / geometry.R
        body_geometry, sep_kf, _ = _support_epigraph_sep(
            eval_support, centred, rng.child("sep_from_opt"),
            sep_eps=sep_eps, rho=rho, ledgers=ledgers)
        objective = np.append(scaled, -2.0)
        cfg = OptimizerConfig(eps=threshold / (2.0 * float(np.linalg.norm(objective))
                                               * (body_geometry.R + body_geometry.r)))
        answer = optimize_linear_accpm(cfg, sep_kf, body_geometry, objective)
        if answer.empty_interior:
            raise EmptyInteriorPropagated("support epigraph optimization")
        point = answer.maximizer
        c_star = 2.0 * point[:-1]
        value = float(scaled @ c_star) - 4.0 * float(point[-1])
        if value <= threshold:
            return SeparationAnswer()
        return SeparationAnswer(_halfspace(unit(c_star), y, 0.0))

    sep.kind = SEP
    sep.ledgers = ledgers
    return sep
