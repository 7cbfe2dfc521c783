"""Correspondences between set oracles and function oracles.

Three identifications carry the whole web:

* indicator function ``1_K`` (0 on the set, +inf outside): evaluating it
  is membership, taking its subgradient is separation;
* support function ``1_K*(c) = max_{x in K} <c, x>``: evaluating it is a
  single optimization query, and its subgradient is the maximizer;
* epigraph body ``K_f = {(x/2, t/4) : ||x|| <= 1, f(x) <= t <= 2}`` for a
  convex f on the unit ball with values in [0, 1]: membership in K_f is
  one question "is f(x) <= t?", and conversely f can be recovered from
  K_f by bisection along the t axis.  When f is a support function that
  question is one VAL query: (x, t) lies in the epigraph exactly when
  VAL(x, t) answers ALL_BELOW.

Composing these with the membership-to-separation estimator and the
cutting-plane optimizer yields every pairwise reduction among the set
oracles; the composed constructors at the bottom of this module package
the useful chains.  Each step asks the cheapest oracle that answers it:
`opt_from_val` answers each containment test of K_f with one VAL query,
and asks SEP of K_f only for the one cut below the graph that carries
the subgradient.  `opt_from_val` and `sep_from_opt` build, once per
chain, one view of their base oracle as that of the normalized body
(K - x0)/R, whose support function is 1-Lipschitz and in [0, 1], and
the SEP of its epigraph.  `sep_from_opt` optimizes over K_f with the
analytic-centre engine (`accpm`), which stops once its certificate
holds; `opt_from_mem` keeps the ellipsoid (see `accpm` for why).  All
three ask their SEP from MEM at `inner_sep_eps(eps)` unless given `sep_eps`,
with `separation`'s `RETRIES`, and its `RHO` unless given a rho (perfbench's).

Stack forms.  `support_eval_from_opt`, `eval_support_from_val`,
`eval_from_mem_epigraph`, `EpigraphBody.as_mem` and the two normalized
views answer a (k, n) stack of queries as their `rows`, and a single
call is the stack form on a stack of one: `core.single_of` builds it,
with the one entry check of the query, for every view but `as_mem`,
whose single call is `EpigraphBody.membership`.  Each asks its inner
oracle through `core.rows_of`: one call per stack over an inner `rows`
form (the exact oracles), one query per row, in row order, over any
other (`amplify`'s voters, plain callables).  Every bisection here runs
in lockstep through `kernels.bisect_rows`, one stacked query per round
whatever the base oracle: the height oracle's over the 2(n+1) rows of
an epigraph subgradient estimate (OPT or VAL), and the two evaluations'
(VAL, MEM); the epigraph asks one VAL query per containment test.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .core import (EVAL, GRAD, MEM, OPT, SEP, VAL, EmptyInteriorPropagated,
                   GradAnswer, MembershipAnswer, OptimizationAnswer,
                   ProblemGeometry, QueryLedger, RandomStream,
                   SeparationAnswer, ValidityAnswer, check_precision, rows_of,
                   single_of, wrap_with_ledger)
from .accpm import optimize_linear_accpm
from .ellipsoid import OptimizerConfig, optimize_linear
from .geometry import HalfSpace, _halfspace, as_vector, as_vector_of, unit
from .separation import RHO, SepFromMem

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
    are always outside when f >= 0.)

    f is given by `f_eval`, an EVAL oracle (x, delta) -> f(x), or, for
    the support function of a body, that body's VAL oracle (kind `VAL`):
    f(x) <= T exactly when VAL(x, T) answers ALL_BELOW, so each
    containment test is one VAL query and f is never evaluated.  The
    range requirement is enforced lazily: every f value is checked, and
    a VAL answer that proves f out of range (SOME_ABOVE at
    T >= 1 + `RANGE_SLACK`, ALL_BELOW at T < -`RANGE_SLACK`) raises the
    same ValueError.
    """

    INNER_RADIUS = 0.1
    OUTER_RADIUS = 0.625
    CENTER_T = 0.375
    RANGE_SLACK = 0.25

    def __init__(self, f_eval, dim: int):
        self.f_eval = f_eval
        self.dim = dim
        self._val = getattr(f_eval, "kind", None) == VAL
        self._f_rows = rows_of(f_eval, VAL if self._val else EVAL)
        center = np.append(np.zeros(dim), self.CENTER_T)
        self.geometry = ProblemGeometry(dim + 1, self.INNER_RADIUS,
                                        self.OUTER_RADIUS, center)

    def membership(self, point, delta):
        """MEM(K_f) at one point: `membership_rows` on a stack of one."""
        point = as_vector_of(point, self.dim + 1)
        return INSIDE if self.membership_rows(point[None, :], delta)[0] else OUTSIDE

    def membership_rows(self, P: np.ndarray, delta) -> np.ndarray:
        """Membership of every row of the float64 (k, n+1) stack P, taken
        as given, as a bool array (True for INSIDE).  The rows that pass
        the cylinder and lid gate ask "f(x) <= t + margin?" at precision
        delta/10 (`_below`), in one call of f_eval's stack form."""
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
            inside[gate] = self._below(query, t[gate] + margin, delta / 10.0)
        return inside

    def _below(self, X: np.ndarray, T: np.ndarray, delta) -> np.ndarray:
        """f(x) <= T row by row, range-checked: one VAL query per row
        over a VAL f_eval, else one f value per row."""
        if self._val:
            above = self._f_rows(X, T, delta)
            bad = np.where(above, T >= 1.0 + self.RANGE_SLACK, T < -self.RANGE_SLACK)
            if bad.any():
                relation = ">" if above[bad][0] else "<="
                raise ValueError("epigraph construction requires values in [0, 1]; "
                                 f"got f {relation} {T[bad][0]}")
            return ~above
        values = self._f_rows(X, delta)
        bad = ~((values >= -self.RANGE_SLACK) & (values <= 1.0 + self.RANGE_SLACK))
        if bad.any():
            raise ValueError(
                f"epigraph construction requires values in [0, 1]; got {values[bad][0]}")
        return values <= T

    def as_mem(self):
        """MEM view of the body, with `membership_rows` as its `rows`: a
        height estimate over it bisects in lockstep, one stacked f_eval
        query per round."""
        def mem(point, delta):
            return self.membership(point, delta)

        mem.kind = MEM
        mem.rows = self.membership_rows
        return mem


def eval_from_mem_epigraph(mem_kf, dim: int):
    """EVAL(f) from MEM(K_f): t = 2 - alpha for the largest alpha with
    (y/2, 1/2) + alpha (0, -1/4) inside, bisected over [0, 2] by
    `kernels.bisect_rows`, ceil(log2(2/delta)) MEM queries per row at
    delta / (4 iters); +inf on a row that never answers INSIDE."""
    mem_rows = rows_of(mem_kf, MEM)
    down = np.append(np.zeros(dim), -0.25)

    def rows(Y, delta):
        check_precision(delta)
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        if np.any(np.sqrt(np.vecdot(Y, Y)) > 1.0):
            raise ValueError("evaluation point must lie in the unit ball")
        iters = math.ceil(math.log2(2.0 / delta))
        inner_delta = delta / (4.0 * iters)
        k = Y.shape[0]
        lid = np.column_stack([0.5 * Y, np.full(k, 0.5)])
        alpha = kernels.bisect_rows(lambda P: mem_rows(P, inner_delta), lid, down,
                                    np.full(k, 2.0), np.full(k, iters))
        # the last bracket is alpha -+ 2^-iters: its lower end is 0 only
        # on a row that never answered INSIDE
        return np.where(alpha > 2.0 ** -iters, 2.0 - alpha, math.inf)

    return single_of(EVAL, rows, dim)


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
    eval_rows = eval_from_mem_epigraph(mem_from_sep(sep_kf) if mem_kf is None else mem_kf, dim).rows

    def grad(y, delta):
        check_precision(delta)
        y = as_vector_of(y, dim)
        alpha = float(eval_rows(y[None, :], delta)[0])
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
    `rows(C, delta)` evaluates a stack."""
    opt_rows = rows_of(opt, OPT)

    def rows(C, delta):
        check_precision(delta)
        # vecdot of two contiguous rows is their c @ y
        return np.vecdot(C, opt_rows(C, delta / (3.0 + geometry.kappa)))

    return single_of(EVAL, rows, geometry.n)


def grad_conjugate_from_opt(opt, geometry: ProblemGeometry):
    """GRAD(1_K*): the subgradient of the support function is the maximizer."""

    def grad(c, delta):
        check_precision(delta)
        c = as_vector_of(c, geometry.n)
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

    The body lies in B(x0, R) around B(x0, r), so the support value lies
    in [c.x0 + r||c||, c.x0 + R||c||] and gamma is bracketed in
    [c.x0, c.x0 + R||c||]; ceil(log2(2 kappa / delta)) validity queries
    per call.  `rows(C, delta)` bisects a stack in lockstep
    (`kernels.bisect_rows`), one VAL query per row and round.
    """
    val_rows = rows_of(val, VAL)

    def rows(C, delta):
        check_precision(delta)
        out = np.zeros(C.shape[0])
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(C, C))
        nonzero = np.flatnonzero(norms != 0.0)
        if nonzero.size:
            C, k = C[nonzero], nonzero.size
            iters = math.ceil(math.log2(2.0 * geometry.kappa / delta))
            inner_delta = delta / (geometry.kappa * iters)
            lo = np.vecdot(C, geometry.center)
            # gamma is "inside" while VAL answers SOME_ABOVE; all rows have
            # one round count, so the stack G stays aligned with C
            out[nonzero] = kernels.bisect_rows(
                lambda G: val_rows(C, G[:, 0], inner_delta), np.zeros((k, 1)),
                np.array([1.0]), lo + geometry.R * norms[nonzero], np.full(k, iters), lo)
        return out

    return single_of(EVAL, rows, geometry.n)


def _normalized_val(val, geometry: ProblemGeometry):
    """VAL of (K - x0)/R from VAL of K, for the centre x0 and the outer
    radius R of `geometry`: c . (x - x0)/R <= gamma exactly when
    c . x <= R gamma + c . x0, and precision delta there is R delta on
    K.  The scaled body lies in B(0, 1) around B(0, r/R), so its support
    function f is in [0, 1] and 1-Lipschitz on the unit ball; f(c) <=
    gamma exactly when the answer is ALL_BELOW."""
    val_rows = rows_of(val, VAL)
    R, shift = geometry.R, geometry.center

    def rows(C, gammas, delta):
        return val_rows(C, R * gammas + np.vecdot(C, shift), R * delta)

    return single_of(VAL, rows, geometry.n)


def _normalized_opt(opt, geometry: ProblemGeometry):
    """OPT of (K - x0)/R from OPT of K, as in `_normalized_val`: the
    maximizers map by y -> (y - x0)/R, and precision delta there is
    R delta on K."""
    opt_rows = rows_of(opt, OPT)
    R, shift = geometry.R, geometry.center

    def rows(C, delta):
        return (opt_rows(C, R * delta) - shift) / R

    return single_of(OPT, rows, geometry.n)


# ---------------------------------------------------------------------------
# composed chains

class _ChainLedgers:
    """Per-stage query ledgers, exposed for cost inspection."""

    def __init__(self, *names: str):
        for name in names:
            setattr(self, name, QueryLedger())


def inner_sep_eps(eps: float) -> float:
    """The membership precision (normalized frame) of the SEP-from-MEM
    oracle inside a chain of precision eps: eps 1e-4, measured, not
    derived.  With `orc run`'s seeding at eps 1e-3, a fixed 1e-4 left
    `opt_from_val` sound on 346 of 400 answers (box and simplex, n = 2
    and 3), and eps 1e-2 left `opt_from_mem` on the box sound on 6 of 10
    seeds at n = 4 and 1 of 10 at n = 8; eps 1e-4 made all of them sound
    (README's complexity note has the costs and a derived rule tried)."""
    return eps * 1e-4


def _counted_sep(mem, geometry: ProblemGeometry, rng: RandomStream, ledgers, *,
                 eps: float, sep_eps: float | None, rho: float):
    """The SEP from MEM of a chain of precision eps, at `sep_eps` or else
    `inner_sep_eps(eps)`, and its MEM, counted in `ledgers.sep` and `.mem`."""
    counted_mem = wrap_with_ledger(mem, ledgers.mem)
    sep = SepFromMem(counted_mem, geometry, rng, rho=rho,
                     eps=inner_sep_eps(eps) if sep_eps is None else sep_eps)
    return wrap_with_ledger(sep, ledgers.sep), counted_mem


def opt_from_mem(mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, sep_eps: float | None = None, rho: float = RHO):
    """OPT(K) = cutting-plane over SEP(K) built from MEM(K) (`_counted_sep`)."""
    ledgers = _ChainLedgers("mem", "sep")
    counted_sep, _ = _counted_sep(mem, geometry, rng, ledgers, eps=eps, sep_eps=sep_eps, rho=rho)
    cfg = OptimizerConfig(eps=eps)

    def opt(c, delta):
        check_precision(delta)
        return optimize_linear(cfg, counted_sep, geometry, c)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def opt_from_val(val, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float | None = None, rho: float = RHO):
    """OPT(K) from VAL(K).

    Chain: the base VAL is viewed as VAL of (K - x0)/R, with x0 the
    centre and R the outer radius of `geometry` (`_normalized_val`), so
    the rest runs on a body centred at the origin, whose support
    function f is in [0, 1] on the unit ball.  The epigraph body K_f
    answers each containment test, "f(c) <= t?", with one VAL query at
    threshold R t + c . x0 and precision R delta/10, so its MEM costs
    one VAL per test that passes the cylinder and lid gate, and none
    for the rest; separation-from-membership gives SEP of K_f.  f(c)
    is bisected along the t axis through the MEM of K_f,
    ceil(log2(2/delta)) queries, and the one SEP query just below the
    graph unpacks into a subgradient of f at c.  The subgradient of a
    support function is the maximizer of <c, x> over the body: x0 + R
    times it.  On the centred body f is 1-Lipschitz, so a steeper
    subgradient is a cut that carries no slope information; the bound
    allows the chain's accuracy, three times its precision.  At eps
    0.02 on boxes and simplices with n = 2 and 3, an answer costs 128-200
    VAL, 146-200 MEM and 1 SEP query at the default `sep_eps`.
    """
    ledgers = _ChainLedgers("val", "mem", "sep")
    kf = EpigraphBody(_normalized_val(wrap_with_ledger(val, ledgers.val), geometry), geometry.n)
    sep, mem = _counted_sep(kf.as_mem(), kf.geometry, rng.child("opt_from_val"), ledgers,
                            eps=eps, sep_eps=sep_eps, rho=rho)
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


def sep_from_opt(opt, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float | None = None, rho: float = RHO):
    """SEP(K) from OPT(K).

    Chain: the base OPT is viewed as OPT of (K - x0)/R, with x0 the
    centre and R the outer radius of `geometry` (`_normalized_opt`), and
    a query y as s = (y - x0)/R, so the rest runs on a body centred at
    the origin, whose support function f is in [0, 1] on the unit ball.
    OPT gives EVAL(f) directly.  The epigraph body K_f and its SEP are
    built once, with the chain, so each query draws fresh streams from
    `SepFromMem`'s query counter.  The value v(c) = <s, c> - f(c) has
    its maximum over ||c|| <= 1 at dist(y, K)/R (the biconjugate
    1_K** = 1_K, restricted to the unit ball).  At a point (c/2, t/4)
    of K_f, <(s, -2), .> is (<s, c> - t)/2, so the analytic-centre
    engine (`accpm.optimize_linear_accpm`) maximizes it over K_f through
    SEP of K_f.  A value <s, c> - t of at most 3 eps at the engine's answer
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

    The threshold is the chain's eps, fixed at construction: a query's
    `delta` is checked and otherwise unused, so a finer delta does not
    tighten "inside", and a caller that needs a finer test builds the
    chain with a smaller eps.
    """
    ledgers = _ChainLedgers("opt", "mem", "sep")
    f = support_eval_from_opt(_normalized_opt(wrap_with_ledger(opt, ledgers.opt), geometry),
                              geometry.rescaled())
    kf = EpigraphBody(f, geometry.n)
    sep_kf, _ = _counted_sep(kf.as_mem(), kf.geometry, rng.child("sep_from_opt"), ledgers,
                             eps=eps, sep_eps=sep_eps, rho=rho)
    threshold = 3.0 * eps

    def sep(y, delta):
        check_precision(delta)
        y = as_vector_of(y, geometry.n)
        scaled = (y - geometry.center) / geometry.R
        objective = np.append(scaled, -2.0)
        cfg = OptimizerConfig(eps=threshold / (2.0 * float(np.linalg.norm(objective))
                                               * (kf.geometry.R + kf.geometry.r)))
        answer = optimize_linear_accpm(cfg, sep_kf, kf.geometry, objective)
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
