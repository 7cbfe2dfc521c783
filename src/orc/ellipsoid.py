"""Optimization from separation: a central-cut ellipsoid engine.

It costs O(n^2 log(1/eps)) separation queries, not the O(n log) of
the nearly-linear-query cutting-plane method the source theorem cites
as a black box, and it runs its whole budget, with no early stop; in
exchange every step follows a simple, exactly-accountable volume
argument.  Each cut is the classical central cut, dilated so the
log-volume decrement per iteration is exactly 1/(2(n+1)).  The budget,
ceil(2n(n+1) log(R/(r eps))) cuts, is the volume certificate (see
`optimize_linear`), and there is no iteration override.  It is the
engine of `opt_from_sep` and `opt_from_mem`, and the reference the
acceptance criteria measure.  `accpm.optimize_linear_accpm`, an
analytic-centre engine with the same contract, is the engine of
`sep_from_opt`: on exact SEP it spends 19-26 queries per OPT at n = 2
and 114-171 at n = 16 (eps 1e-3, ball, box and simplex), against this
engine's 88 and 4512 on the box, and inside `sep_from_opt`, which asks
it only for a violation witness over the polar body, 2-7 SEP (one OPT
each) per answer on perfbench's web at n = 2 and 3, against this
engine's budgets of 61-67 and 121-141 there.

The ellipsoid is kept in factored form, {c + J z : ||z|| <= 1}, and each
cut is a rank-one update of J (Goldfarb & Todd, Math. Programming 23,
1982).  The shape matrix J J^T is positive definite by construction, so
there is no factorization, no definiteness check and no repair.  J is
held as scale * M: the cut's dilation goes to the scalar, and
`kernels.ellipsoid_cut_py` updates M in place.

One iteration of `optimize_linear` is a SEP query and one
`ellipsoid_cut_py`: the loop keeps the center, M and scale as locals,
not as an `EllipsoidState`, and cuts with the oracle's normal as
returned.  The cut reads only the normal's direction, so it is not
normalized again; the objective cut is normalized once per call.
`EllipsoidState` and `ellipsoid_cut` run the same kernel on a copy of M
for callers that hold an ellipsoid, bitwise the loop's cut.

The budget is fixed, so a step's wall time is the engine's whole cost.
Over a ledgered `bodies.ExactSeparation`, as in perfbench's opt_sep, a
step runs the ledger's call and record, the query's entry check
(`as_vector_of`), the body's `separate`, for a point outside
`normalized` and `_halfspace`, and the cut: about nine Python frames of
`orc` code (`test_cutting_plane` holds the count) and, for a point
outside, 16 numpy operations on the ellipsoid, 18 on the box and 17 to
30 on the simplex, whose projection sorts.  At n = 16 a step took 14.2
µs on the box, 17.5 on the simplex and 12.8 on the ellipsoid (best of
40 interleaved runs on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (OPT, VIOL, OptimizationAnswer, ProblemGeometry,
                   ViolationAnswer, check_precision)
from .geometry import HalfSpace, as_vector, as_vector_of, normalized, unit
from .kernels import ellipsoid_cut_py


class OracleInconsistency(RuntimeError):
    """A bracketing search saw answers that cannot coexist."""


@dataclass(frozen=True)
class EllipsoidState:
    """{center + J z : ||z|| <= 1}, the ellipsoid with shape matrix J J^T,
    with its factor held as J = scale * M, the form
    `kernels.ellipsoid_cut_py` updates."""

    center: np.ndarray
    M: np.ndarray
    scale: float = 1.0

    @property
    def J(self) -> np.ndarray:
        return self.scale * self.M

    def log_volume(self) -> float:
        """log vol(E) up to the dimension-only additive constant."""
        return self.center.size * math.log(self.scale) + float(np.linalg.slogdet(self.M)[1])

    @classmethod
    def ball(cls, center, radius: float) -> "EllipsoidState":
        center = as_vector(center)
        return cls(center, radius * np.eye(center.size))


def ellipsoid_cut(state: EllipsoidState, h: HalfSpace | np.ndarray) -> EllipsoidState:
    """Central cut through the current center with h's normal.

    The anchor and slack of h are ignored: cuts always pass through the
    center, keeping {y : <normal, y - center> <= 0}.
    """
    normal = h.normal if isinstance(h, HalfSpace) else unit(h)
    M = state.M.copy()
    center, scale = ellipsoid_cut_py(state.center, M, state.scale, normal)
    return EllipsoidState(center, M, scale)


@dataclass
class OptimizerConfig:
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")

    def resolved_iters(self, geometry: ProblemGeometry) -> int:
        """The ellipsoid's cut budget: the cuts that take the log-volume
        of B(., R) below that of B(., r eps), 1/(2(n+1)) per cut."""
        n = geometry.n
        return math.ceil(2.0 * n * (n + 1) * math.log(geometry.R / (geometry.r * self.eps)))

    def resolved_sep_delta(self, geometry: ProblemGeometry) -> float:
        """The precision each SEP query is asked at, (eps/(n kappa))^3."""
        return (self.eps / (geometry.n * geometry.kappa)) ** 3


def optimize_linear(cfg: OptimizerConfig, sep, geometry: ProblemGeometry,
                    c) -> OptimizationAnswer:
    """Maximize <c, y> over the body behind `sep`.

    Starts from the outer ball B(center, R); queries the separation
    oracle at each ellipsoid center, cutting with the returned normal
    (or with the objective when the center is feasible), and after
    exactly `cfg.resolved_iters(geometry)` cuts returns the best
    feasible center seen.  That budget is the volume certificate: the
    last ellipsoid holds no ball of radius r*eps, so with no feasible
    center the answer is EmptyInterior (a `None` maximizer).  At c = 0
    the center, in K, is a maximizer, and no SEP is asked.
    """
    c = as_vector_of(c, geometry.n)
    if not c.any():
        return OptimizationAnswer(geometry.center.copy())
    # a feasible center's cut: -c/||c||, as the unit normal
    # `ellipsoid_cut` makes of the array -unit(c)
    objective_cut = normalized(-normalized(c))
    sep_delta = cfg.resolved_sep_delta(geometry)
    center, M, scale = geometry.center, geometry.R * np.eye(geometry.n), 1.0

    best = None
    best_val = -math.inf
    for _ in range(cfg.resolved_iters(geometry)):
        h = sep(center, sep_delta).halfspace
        if h is None:
            val = float(c.dot(center))
            if val > best_val:
                best, best_val = center, val
            g = objective_cut
        else:
            g = h.normal
        center, scale = ellipsoid_cut_py(center, M, scale, g)
    return OptimizationAnswer(best)


def opt_from_viol(viol, geometry: ProblemGeometry, delta: float):
    """Optimization oracle via binary search over the threshold gamma.

    Each query runs at the finer of the construction's `delta` and its
    own precision, d = min(delta, query_delta): the VIOL queries are
    asked at d, and each witness must come within 2 d of its threshold.
    The body lies in B(x0, R) for the centre x0 and outer radius R of
    `geometry`, so gamma is bracketed in [c.x0 - R||c||, c.x0 + R||c||],
    and the bisection stops at a bracket of width d or, below the float
    spacing, once the midpoint no longer splits it: ceil(log2(2R||c||/d))
    VIOL queries per call, give or take one by the rounding of the
    halvings, fewer at that spacing, and one where R||c|| < d, where any
    point of the body is a maximizer to within 2 d.
    """
    check_precision(delta)

    def opt(c, query_delta):
        d = min(delta, check_precision(query_delta))
        c = as_vector_of(c, geometry.n)
        at_x0 = float(c @ geometry.center)
        spread = max(geometry.R * float(np.linalg.norm(c)), d)
        lo, hi = at_x0 - spread, at_x0 + spread
        witness = None
        while hi - lo > d:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            ans = viol(c, mid, d)
            if ans.all_below:
                hi = mid
            else:
                w = ans.witness
                if float(c @ w) < mid - 2.0 * d:
                    raise OracleInconsistency(
                        "witness does not beat the threshold it was returned for")
                witness, lo = w, mid
        return OptimizationAnswer(witness)

    opt.kind = OPT
    return opt


def viol_from_opt(opt):
    """Violation oracle from a single optimization query."""

    def viol(c, gamma, delta):
        ans = opt(c, delta)
        if ans.empty_interior:
            return ViolationAnswer(None)
        y = ans.maximizer
        if float(as_vector(c) @ y) >= gamma - delta:
            return ViolationAnswer(y)
        return ViolationAnswer(None)

    viol.kind = VIOL
    return viol
