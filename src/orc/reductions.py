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
the useful chains.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (EVAL, GRAD, MEM, OPT, SEP, VAL, GradAnswer,
                   MembershipAnswer, OptimizationAnswer, ProblemGeometry,
                   QueryLedger, RandomStream, SeparationAnswer,
                   ValidityAnswer, check_precision, wrap_with_ledger)
from .ellipsoid import OptimizerConfig, optimize_linear
from .geometry import HalfSpace, as_vector, unit
from .separation import SepFromMem

INSIDE = MembershipAnswer.INSIDE_DILATED
OUTSIDE = MembershipAnswer.OUTSIDE_ERODED

#: EVAL(1_K) answers are classified against this threshold: the indicator
#: only takes the values 0 and +inf, so any finite cutoff in between works;
#: 1/2 keeps maximal slack against evaluation noise on both sides.
INDICATOR_THRESHOLD = 0.5


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
        return SeparationAnswer(HalfSpace(unit(answer.subgrad), as_vector(y), 0.0))

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

    def _checked_eval(self, x: np.ndarray, delta: float) -> float:
        value = float(self.f_eval(x, delta))
        if not -self.RANGE_SLACK <= value <= 1.0 + self.RANGE_SLACK:
            raise ValueError(
                f"epigraph construction requires values in [0, 1]; got {value}")
        return value

    def membership(self, point, delta):
        check_precision(delta)
        point = as_vector(point)
        if point.size != self.dim + 1:
            raise ValueError("epigraph point must live in R^{n+1}")
        x = 2.0 * point[:-1]
        t = 4.0 * point[-1]
        # a delta-ball around the query maps to at most a 4*delta margin
        # in the unscaled (x, t) coordinates
        margin = 4.0 * delta
        x_norm = float(np.linalg.norm(x))
        if x_norm > 1.0 + margin or t > 2.0 + margin:
            return OUTSIDE
        query = x if x_norm <= 1.0 else x / x_norm
        value = self._checked_eval(query, delta / 10.0)
        return INSIDE if value <= t + margin else OUTSIDE

    def as_mem(self):
        def mem(point, delta):
            return self.membership(point, delta)

        mem.kind = MEM
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


def grad_from_sep_epigraph(sep_kf, dim: int, retries: int = 3):
    """GRAD(f) from SEP(K_f).

    Evaluates f(y) by bisection through the separation oracle's
    membership side, then queries just below the graph at
    (y/2, (alpha - depth)/4) and unpacks the returned halfspace normal
    (c_x, c_t) into the subgradient -2 c_x / c_t.  Nearly vertical
    cuts (|c_t| < 1e-9) are retried at doubled depth, then rejected.
    """
    eval_f = eval_from_mem_epigraph(mem_from_sep(sep_kf), dim)

    def grad(y, delta):
        check_precision(delta)
        y = as_vector(y)
        alpha = eval_f(y, delta)
        if not math.isfinite(alpha):
            raise ValueError("cannot take a subgradient where f is infinite")
        depth = delta
        for _ in range(retries):
            point = np.append(0.5 * y, (alpha - depth) / 4.0)
            answer = sep_kf(point, delta / 10.0)
            h = answer.halfspace
            if h is not None and abs(h.normal[-1]) >= 1e-9:
                c_x, c_t = h.normal[:-1], h.normal[-1]
                return GradAnswer(alpha, -2.0 * c_x / c_t)
            depth *= 2.0
        raise VerticalCut(
            f"no usable cut below the graph at depth {depth / 2.0}")

    grad.kind = GRAD
    return grad


# ---------------------------------------------------------------------------
# support function 1_K*

def support_eval_from_opt(opt, geometry: ProblemGeometry):
    """EVAL(1_K*) from one optimization query at precision delta/(3+kappa)."""

    def eval_support(c, delta):
        check_precision(delta)
        c = as_vector(c)
        answer = opt(c, delta / (3.0 + geometry.kappa))
        if answer.empty_interior:
            raise EmptyInteriorPropagated("support evaluation")
        return float(c @ answer.maximizer)

    eval_support.kind = EVAL
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
    delta)) validity queries per call.
    """

    def eval_support(c, delta):
        check_precision(delta)
        c = as_vector(c)
        c_norm = float(np.linalg.norm(c))
        if c_norm == 0.0:
            return 0.0
        iters = math.ceil(math.log2(2.0 * geometry.kappa / delta))
        inner_delta = max(delta / (geometry.kappa * iters), 1e-15)
        lo, hi = 0.0, geometry.R * c_norm
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if val(c, mid, inner_delta) is ValidityAnswer.SOME_ABOVE:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    eval_support.kind = EVAL
    return eval_support


def _normalized_support_eval(eval_support, geometry: ProblemGeometry):
    """Rescale 1_K* so its values land in [0, 1] on the unit ball.

    With K inside B(0, R), the support satisfies 1_K*(c) <= R||c||, so
    dividing by R gives an admissible epigraph function.
    """

    def f(c, delta):
        return eval_support(c, delta * geometry.R) / geometry.R

    f.kind = EVAL
    return f


# ---------------------------------------------------------------------------
# composed chains

class _ChainLedgers:
    """Per-stage query ledgers, exposed for cost inspection."""

    def __init__(self, *names: str):
        for name in names:
            setattr(self, name, QueryLedger())


def opt_from_mem(mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, sep_eps: float | None = None,
                 rho: float | None = None,
                 sep_delta_exponent: int = 3):
    """OPT(K) = cutting-plane over SEP(K) built from MEM(K)."""
    ledgers = _ChainLedgers("mem", "sep")
    counted_mem = wrap_with_ledger(mem, ledgers.mem)
    sep = SepFromMem(counted_mem, geometry, rng, eps=sep_eps, rho=rho)
    counted_sep = wrap_with_ledger(sep, ledgers.sep)
    cfg = OptimizerConfig(eps=eps, sep_delta_exponent=sep_delta_exponent)

    def opt(c, delta):
        check_precision(delta)
        return optimize_linear(cfg, counted_sep, geometry, c)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def _optimize_over_support_epigraph(eval_support, geometry: ProblemGeometry,
                                    rng: RandomStream, direction, *,
                                    eps: float, sep_eps: float | None,
                                    rho: float | None, ledgers):
    """Maximize <direction, .> over K_{1_K*} via MEM -> SEP -> cutting plane.

    This is the inner engine shared by the VAL -> OPT and OPT -> SEP
    chains: both reduce to a linear optimization over the epigraph body
    of the (normalized) support function.
    """
    f = _normalized_support_eval(eval_support, geometry)
    body = EpigraphBody(f, geometry.n)
    counted_mem = wrap_with_ledger(body.as_mem(), ledgers.mem)
    sep = SepFromMem(counted_mem, body.geometry, rng, eps=sep_eps, rho=rho)
    counted_sep = wrap_with_ledger(sep, ledgers.sep)
    cfg = OptimizerConfig(eps=eps)
    answer = optimize_linear(cfg, counted_sep, body.geometry, direction)
    if answer.empty_interior:
        raise EmptyInteriorPropagated("support epigraph optimization")
    return answer.maximizer


def opt_from_val(val, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float | None = None,
                 rho: float | None = None):
    """OPT(K) from VAL(K).

    Chain: VAL recovers EVAL(1_K*) by bisection; the epigraph body of
    the normalized support function turns that into a membership oracle;
    separation-from-membership gives SEP of the epigraph body, and the
    just-below-the-graph separation query unpacks into a subgradient of
    the support function at c.  The subgradient of a support function
    is the maximizer of <c, x> over the body, restored to scale by R.
    """
    ledgers = _ChainLedgers("val", "mem", "sep")
    counted_val = wrap_with_ledger(val, ledgers.val)
    eval_support = eval_support_from_val(counted_val, geometry)
    f = _normalized_support_eval(eval_support, geometry)
    body = EpigraphBody(f, geometry.n)
    counted_mem = wrap_with_ledger(body.as_mem(), ledgers.mem)
    sep = SepFromMem(counted_mem, body.geometry, rng.child("opt_from_val"),
                     eps=sep_eps, rho=rho)
    counted_sep = wrap_with_ledger(sep, ledgers.sep)
    grad = grad_from_sep_epigraph(counted_sep, geometry.n)

    def opt(c, delta):
        check_precision(delta)
        c = as_vector(c)
        c_norm = float(np.linalg.norm(c))
        if c_norm == 0.0:
            return OptimizationAnswer(geometry.center.copy())
        # the inner subgradient precision is floored at eps: the chain's
        # practical accuracy is set by the separation estimator anyway
        answer = grad(c / c_norm, max(delta, eps))
        return OptimizationAnswer(geometry.R * answer.subgrad)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def sep_from_opt(opt, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float = 0.01, sep_eps: float | None = None,
                 rho: float | None = None):
    """SEP(K) from OPT(K).

    Chain: OPT gives EVAL(1_K*) directly; optimizing <(x, -1), .> over
    the epigraph body of the normalized support function computes
    sup_c <x, c> - 1_K*(c) — the biconjugate 1_K** = 1_K at x, restricted
    to ||c|| <= 1.  A near-zero optimum certifies x in K; otherwise the
    maximizing direction c separates.
    """
    ledgers = _ChainLedgers("opt", "mem", "sep")
    counted_opt = wrap_with_ledger(opt, ledgers.opt)
    eval_support = support_eval_from_opt(counted_opt, geometry)
    tol = 3.0 * eps

    def sep(y, delta):
        check_precision(delta)
        y = as_vector(y)
        scaled = y / geometry.R
        direction = np.append(scaled, -1.0)
        point = _optimize_over_support_epigraph(
            eval_support, geometry, rng.child("sep_from_opt"), direction,
            eps=eps, sep_eps=sep_eps, rho=rho, ledgers=ledgers)
        c_star = 2.0 * point[:-1]
        value = float(scaled @ c_star) - 4.0 * float(point[-1])
        if value <= tol:
            return SeparationAnswer()
        return SeparationAnswer(HalfSpace(unit(c_star), y, 0.0))

    sep.kind = SEP
    sep.ledgers = ledgers
    return sep
