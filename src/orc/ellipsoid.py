"""Optimization from separation: a central-cut ellipsoid engine.

This is the deliberate stand-in for the nearly-linear-query
cutting-plane method the source theorem cites as a black box: it costs
O(n^2 log(1/eps)) separation queries instead of O(n log), trading the
headline query complexity for a simple, exactly-accountable volume
argument.  Each cut is the classical central cut, dilated so the
log-volume decrement per iteration is exactly 1/(2(n+1)).

The ellipsoid is kept in factored form, {c + J z : ||z|| <= 1}, and each
cut is a rank-one update of J (Goldfarb & Todd, Math. Programming 23,
1982).  The shape matrix J J^T is positive definite by construction, so
there is no factorization, no definiteness check and no repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (OPT, VIOL, OptimizationAnswer, ProblemGeometry,
                   ViolationAnswer, check_precision)
from .geometry import HalfSpace, as_vector, unit
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
    cu = unit(c)
    n = geometry.n
    sep_delta = cfg.resolved_sep_delta(geometry)
    max_iters = cfg.resolved_iters(geometry)
    state = EllipsoidState.ball(geometry.center, geometry.R)
    log_volume = n * math.log(geometry.R)
    drop = 1.0 / (2.0 * (n + 1))
    floor_logvol = n * math.log(geometry.r * cfg.eps)

    best = None
    best_val = -math.inf
    for _ in range(max_iters):
        ans = sep(state.center, sep_delta)
        if ans.inside:
            val = float(c @ state.center)
            if val > best_val:
                best, best_val = state.center, val
            cut_normal = -cu
        else:
            cut_normal = ans.halfspace.normal
        state = ellipsoid_cut(state, cut_normal)
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
