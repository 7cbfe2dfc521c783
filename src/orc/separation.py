"""Separation for a convex set from a membership oracle.

The query point is tested for membership first; far-out points get the
trivial halfspace through themselves.  Otherwise a subgradient of the
height function h_x is estimated by randomized finite differences and
normalized into the separating normal.  Two slack modes: the
theoretical slack term (sound by analysis, astronomically loose at
practical parameters) and anchored mode (slack zero through the query
point, soundness established empirically), the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (MEM, SEP, ProblemGeometry, RandomStream, SeparationAnswer,
                   check_precision)
from .geometry import HalfSpace, as_vector, unit
from .height import HeightOracle
from .subgrad import EstimatorParams, separate_convex_func

THEORETICAL = "theoretical"
ANCHORED = "anchored"

# target ratio of bisection-induced derivative noise (per coordinate,
# times dimension) to the height gradient scale
NOISE_FRACTION = 0.02


class DegenerateGradient(RuntimeError):
    """||g|| stayed below 1/(4*kappa) through all retries.

    Signals that the membership precision eps is too coarse for the
    body's geometry; try a smaller eps or more retries.
    """


@dataclass
class SeparatorConfig:
    """Knobs for one separation run on a body recentered to
    B(0, r) <= K <= B(0, R)."""

    eps: float
    rho: float
    geometry: ProblemGeometry
    retries: int = 3
    mode: str = ANCHORED

    def __post_init__(self):
        if not 0.0 < self.eps <= self.geometry.r:
            raise ValueError(f"need 0 < eps <= r, got eps={self.eps!r} r={self.geometry.r!r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.mode not in (THEORETICAL, ANCHORED):
            raise ValueError(f"unknown slack mode {self.mode!r}")
        if (isinstance(self.retries, bool)
                or not isinstance(self.retries, (int, np.integer)) or self.retries < 0):
            raise ValueError(f"retries must be a non-negative int, got {self.retries!r}")

    def r1(self) -> float:
        g = self.geometry
        n = g.n
        schedule = n ** (1 / 6) * self.eps ** (1 / 3) * g.R ** (2 / 3) / g.kappa
        # clamp keeps the sampling box B_inf(0, 2 r1) inside B_2(0, r/2)
        return min(schedule, g.r / (4.0 * math.sqrt(n)))


def theoretical_slack(cfg: SeparatorConfig) -> float:
    g = cfg.geometry
    return (50.0 / cfg.rho) * g.n ** (7 / 6) * g.R ** (2 / 3) * g.kappa * cfg.eps ** (1 / 3)


def separate(cfg: SeparatorConfig, mem, x, rng: RandomStream) -> SeparationAnswer:
    """One separation query for x against the recentered body."""
    x = as_vector(x)
    g = cfg.geometry
    if mem(x, cfg.eps).inside:
        return SeparationAnswer()
    x_norm = float(np.linalg.norm(x))
    if x_norm > g.R:
        return SeparationAnswer(HalfSpace(x / x_norm, x, 0.0))

    kappa = g.kappa
    r1 = cfg.r1()
    eval_eps = 4.0 * cfg.eps
    params = EstimatorParams(np.zeros(g.n), r1, eval_eps, 3.0 * kappa)
    # Cap the bisection half-width so the per-coordinate derivative
    # noise bin_tol*||x||/r2 stays well below the gradient scale; the
    # naive eval_eps/(2||x||) choice drowns the signal for skinny bodies
    # (large kappa).
    bin_tol = min(eval_eps / (2.0 * x_norm),
                  NOISE_FRACTION * params.r2 / (g.n * x_norm))
    ho = HeightOracle(mem, g, x, bin_tol, cfg.eps)
    h_eval = ho.as_eval()

    gtilde = None
    for attempt in range(cfg.retries + 1):
        cand = separate_convex_func(h_eval, params, rng.child(attempt))
        if float(np.linalg.norm(cand)) >= 1.0 / (4.0 * kappa):
            gtilde = cand
            break
    if gtilde is None:
        raise DegenerateGradient(
            f"||g|| < 1/(4 kappa) after {cfg.retries + 1} attempts (eps={cfg.eps})")
    g_norm = float(np.linalg.norm(gtilde))
    slack = 0.0 if cfg.mode == ANCHORED else theoretical_slack(cfg) / g_norm
    return SeparationAnswer(HalfSpace(gtilde / g_norm, x, slack))


class _AffineMem:
    """View of a membership oracle in recentered coordinates:
    y' = (y - x0)/R, distances and precisions scale by R."""

    kind = MEM

    def __init__(self, inner, center: np.ndarray, scale: float):
        self._inner = inner
        self._center = center
        self._scale = scale

    def __call__(self, y, delta):
        return self._inner(self._center + self._scale * y, delta * self._scale)

    @property
    def alpha_bisect_rows(self):
        inner = getattr(self._inner, "alpha_bisect_rows", None)
        if inner is None:
            raise AttributeError("inner oracle has no alpha_bisect_rows fast path")

        def fast(D, x, hi, iters, delta):
            return inner(self._center + self._scale * D, self._scale * x,
                         hi, iters, delta * self._scale)

        return fast


class SepFromMem:
    """Packaged separation oracle built on a membership oracle.

    Handles the recentering wrapper (shift by -x0, scale by 1/R) and
    maps answers back to the caller's coordinates.  The membership
    precision eps is fixed for the body, in the rescaled coordinates;
    every query runs at that eps whatever its precision eta.  rho enters
    only the theoretical slack; in anchored mode it is only validated.
    """

    kind = SEP

    def __init__(self, mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, rho: float = 0.1, mode: str = ANCHORED,
                 retries: int = 3):
        self.geometry = geometry
        self._mem = _AffineMem(mem, geometry.center, geometry.R)
        self._cfg = SeparatorConfig(eps=eps, rho=rho, geometry=geometry.rescaled(),
                                    retries=retries, mode=mode)
        self._rng = rng
        self._queries = 0

    def __call__(self, y, eta) -> SeparationAnswer:
        check_precision(eta)
        y = as_vector(y)
        g = self.geometry
        y_scaled = (y - g.center) / g.R
        self._queries += 1
        ans = separate(self._cfg, self._mem, y_scaled, self._rng.child(self._queries))
        if ans.inside:
            return ans
        h = ans.halfspace
        return SeparationAnswer(HalfSpace(h.normal, y, h.slack * g.R))
