"""Optimization from separation: a central-cut ellipsoid engine.

It costs O(n^2 log(1/eps)) separation queries, not the O(n log) of
the nearly-linear-query cutting-plane method the source theorem cites
as a black box, and it runs its whole budget, with no early stop; in
exchange every step follows a simple, exactly-accountable volume
argument.  Each cut is the classical central cut, dilated so the
log-volume decrement per iteration is exactly 1/(2(n+1)).  It is the
engine of `opt_from_sep` and `opt_from_mem`, and the reference the
acceptance criteria measure.  `accpm.optimize_linear_accpm`, an
analytic-centre engine with the same contract, is the engine of
`sep_from_opt`: on exact SEP it spends 19-26 queries per OPT at n = 2
and 114-171 at n = 16 (eps 1e-3, ball, box and simplex), against this
engine's 88 and 4512 on the box, and inside `sep_from_opt` 18-29 SEP
of the epigraph body per answer at n = 2 and 3, against 138 and 230.

The ellipsoid is kept in factored form, {c + J z : ||z|| <= 1}, and each
cut is a rank-one update of J (Goldfarb & Todd, Math. Programming 23,
1982).  The shape matrix J J^T is positive definite by construction, so
there is no factorization, no definiteness check and no repair.

One iteration of `optimize_linear` is a SEP query, one normalization of
the cut normal and one `ellipsoid_cut_py`: the loop keeps the center and
J as locals, not as an `EllipsoidState`, normalizes a separating normal
with `normalized` (bitwise `unit`, without re-checking a vector the
oracle already checked) and normalizes the objective cut once per call.
`EllipsoidState` and `ellipsoid_cut` are the same cut for callers that
hold an ellipsoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (OPT, VIOL, OptimizationAnswer, ProblemGeometry,
                   ViolationAnswer, check_precision)
from .geometry import HalfSpace, as_vector, normalized, unit
from .kernels import ellipsoid_cut_py


class MaxItersExhausted(RuntimeError):
    """Iteration budget spent without ever seeing a feasible center.

    Distinct from the EmptyInterior assertion: the volume certificate
    was not reached, so nothing can be asserted about the body.
    """


class OracleInconsistency(RuntimeError):
    """A bracketing search saw answers that cannot coexist."""


@dataclass(frozen=True)
class EllipsoidState:
    """{center + J z : ||z|| <= 1}, the ellipsoid with shape matrix J J^T."""

    center: np.ndarray
    J: np.ndarray

    def log_volume(self) -> float:
        """log vol(E) up to the dimension-only additive constant."""
        return float(np.linalg.slogdet(self.J)[1])

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
    return EllipsoidState(*ellipsoid_cut_py(state.center, state.J, normal))


@dataclass
class OptimizerConfig:
    eps: float
    max_iters: int | None = None

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def resolved_iters(self, geometry: ProblemGeometry) -> int:
        if self.max_iters is not None:
            return self.max_iters
        n = geometry.n
        return math.ceil(2.0 * n * (n + 1) * math.log(geometry.R / (geometry.r * self.eps)))

    def resolved_sep_delta(self, geometry: ProblemGeometry) -> float:
        raw = (self.eps / (geometry.n * geometry.kappa)) ** 3
        return max(raw, 1e-12)


def optimize_linear(cfg: OptimizerConfig, sep, geometry: ProblemGeometry,
                    c) -> OptimizationAnswer:
    """Maximize <c, y> over the body behind `sep`.

    Starts from the outer ball B(center, R); queries the separation
    oracle at each ellipsoid center, cutting with the returned normal
    (or with the objective when the center is feasible), and returns
    the best feasible center seen.  EmptyInterior is declared when the
    ellipsoid volume falls below that of B(., r*eps) without any
    feasible center.  Every cut drops the log-volume by exactly
    1/(2(n+1)), so the floor test reads a running sum, not the factor.
    """
    c = as_vector(c)
    # a feasible center's cut: -c/||c||, normalized as every cut normal is
    objective_cut = normalized(-normalized(c))
    n = geometry.n
    sep_delta = cfg.resolved_sep_delta(geometry)
    max_iters = cfg.resolved_iters(geometry)
    center, J = geometry.center, geometry.R * np.eye(n)
    log_volume = n * math.log(geometry.R)
    drop = 1.0 / (2.0 * (n + 1))
    floor_logvol = n * math.log(geometry.r * cfg.eps)

    best = None
    best_val = -math.inf
    for _ in range(max_iters):
        h = sep(center, sep_delta).halfspace
        if h is None:
            val = float(c @ center)
            if val > best_val:
                best, best_val = center, val
            g = objective_cut
        else:
            g = normalized(h.normal)
        center, J = ellipsoid_cut_py(center, J, g)
        log_volume -= drop
        if log_volume < floor_logvol:
            break
    if best is not None:
        return OptimizationAnswer(best)
    if log_volume < floor_logvol:
        return OptimizationAnswer(None)
    raise MaxItersExhausted(
        f"no feasible center within {max_iters} iterations and volume floor not reached")


def opt_from_viol(viol, delta: float):
    """Optimization oracle via binary search over the threshold gamma.

    Requires the body inside the unit ball, so gamma is bracketed in
    [-1, 1]; exactly ceil(log2(2/delta)) violation queries per call.
    """
    check_precision(delta)

    def opt(c, query_delta):
        c = as_vector(c)
        lo, hi = -1.0, 1.0
        witness = None
        while hi - lo > delta:
            mid = 0.5 * (lo + hi)
            ans = viol(c, mid, delta)
            if ans.all_below:
                hi = mid
            else:
                w = ans.witness
                if float(c @ w) < mid - 2.0 * delta:
                    raise OracleInconsistency(
                        "witness does not beat the threshold it was returned for")
                witness, lo = w, mid
        if witness is None:
            return OptimizationAnswer(None)
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
