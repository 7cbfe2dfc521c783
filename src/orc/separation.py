"""Separation for a convex set from a membership oracle.

The query point is tested for membership first; far-out points get the
trivial halfspace through themselves.  Otherwise a subgradient of the
height function h_x of the body normalized by its geometry is estimated
by randomized finite differences and normalized into the separating
normal; `HeightOracle` maps its bisection points into the body's frame,
so the membership oracle is always asked in the caller's coordinates.  Two slack modes: the
theoretical slack term (sound by analysis, astronomically loose at
practical parameters) and anchored mode (slack zero through the query
point, soundness established empirically), the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SEP, ProblemGeometry, RandomStream, SeparationAnswer,
                   check_precision)
from .geometry import _halfspace, as_vector_of, normalized
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
    """Knobs for one separation run on a body with the sandwich
    B(center, r) <= K <= B(center, R) that `geometry` gives.

    The separator estimates its cut on the body normalized by that
    geometry (shifted by -center and divided by R), so eps is a
    membership precision in that frame, and r1 and the theoretical
    slack are derived from `geometry.rescaled()`.  The membership oracle
    is asked at precision eps*R in the body's own frame, which must lie
    below 1/2 like every precision.
    """

    eps: float
    rho: float
    geometry: ProblemGeometry
    retries: int = 3
    mode: str = ANCHORED

    def __post_init__(self):
        self._scaled = self.geometry.rescaled()
        if not 0.0 < self.eps <= self._scaled.r:
            raise ValueError(f"need 0 < eps <= r/R, got eps={self.eps!r} "
                             f"r/R={self._scaled.r!r}")
        if not self.eps * self.geometry.R < 0.5:
            raise ValueError(f"need eps*R < 1/2, the membership precision bound; got "
                             f"eps*R={self.eps * self.geometry.R!r}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.mode not in (THEORETICAL, ANCHORED):
            raise ValueError(f"unknown slack mode {self.mode!r}")
        if (isinstance(self.retries, bool)
                or not isinstance(self.retries, (int, np.integer)) or self.retries < 0):
            raise ValueError(f"retries must be a non-negative int, got {self.retries!r}")

    def r1(self) -> float:
        g = self._scaled
        n = g.n
        schedule = n ** (1 / 6) * self.eps ** (1 / 3) * g.R ** (2 / 3) / g.kappa
        # clamp keeps the sampling box B_inf(0, 2 r1) inside B_2(0, r/2)
        return min(schedule, g.r / (4.0 * math.sqrt(n)))


def theoretical_slack(cfg: SeparatorConfig) -> float:
    """The theoretical slack term in the normalized frame."""
    g = cfg._scaled
    return (50.0 / cfg.rho) * g.n ** (7 / 6) * g.R ** (2 / 3) * g.kappa * cfg.eps ** (1 / 3)


def separate(cfg: SeparatorConfig, mem, y, rng: RandomStream) -> SeparationAnswer:
    """One separation query for y against the body that mem answers for
    and cfg.geometry describes.

    y is tested at precision eps*R.  The estimate runs at
    x = (y - center)/R in the normalized frame, through a `HeightOracle`
    that maps its points back into the body's frame; the cut is
    anchored at y, with its slack scaled back by R.
    """
    g = cfg.geometry
    y = as_vector_of(y, g.n)
    if mem(y, cfg.eps * g.R).inside:
        return SeparationAnswer()
    x = (y - g.center) / g.R
    x_norm = float(np.linalg.norm(x))
    if x_norm > 1.0:
        # x / ||x||, also where x.x overflows
        return SeparationAnswer(_halfspace(normalized(x), y, 0.0))

    kappa = cfg._scaled.kappa
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
    return SeparationAnswer(_halfspace(gtilde / g_norm, y, slack * g.R))


class SepFromMem:
    """Packaged separation oracle built on a membership oracle: `separate`
    with one config for the body and a child random stream per query.

    The membership precision eps is fixed for the body, in the
    normalized frame; every query runs at that eps whatever its
    precision eta.  rho enters only the theoretical slack; in anchored
    mode it is only validated.
    """

    kind = SEP

    def __init__(self, mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, rho: float = 0.1, mode: str = ANCHORED,
                 retries: int = 3):
        self.geometry = geometry
        self._mem = mem
        self._cfg = SeparatorConfig(eps=eps, rho=rho, geometry=geometry,
                                    retries=retries, mode=mode)
        self._rng = rng
        self._queries = 0

    def __call__(self, y, eta) -> SeparationAnswer:
        check_precision(eta)
        self._queries += 1
        return separate(self._cfg, self._mem, y, self._rng.child(self._queries))
