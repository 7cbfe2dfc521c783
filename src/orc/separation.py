"""Separation for a convex set from a membership oracle.

The query point is tested for membership first; far-out points get the
trivial halfspace through themselves.  Otherwise a subgradient of the
height function h_x of the body normalized by its geometry is estimated
by randomized finite differences and normalized into the separating
normal; `HeightOracle` maps its bisection points into the body's frame,
so the membership oracle is always asked in the caller's coordinates.  Two slack modes: the
theoretical slack term (sound by analysis, astronomically loose at
practical parameters) and anchored mode (slack zero through the query
point, soundness established empirically), the default.  `SepFromMem`
derives what depends only on the body and eps once, when it is built.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (SEP, ProblemGeometry, RandomStream, SeparationAnswer,
                   check_precision)
from .geometry import _halfspace, as_vector_of, normalized
from .height import HeightOracle
from .subgrad import EstimatorParams, separate_convex_func

THEORETICAL = "theoretical"
ANCHORED = "anchored"

#: SepFromMem's default rho, which the chains built over it share
RHO = 0.1
#: fresh estimates a SepFromMem query draws after the first, on every chain
RETRIES = 3

# target ratio of bisection-induced derivative noise (per coordinate,
# times dimension) to the height gradient scale
NOISE_FRACTION = 0.02


class DegenerateGradient(RuntimeError):
    """||g|| stayed below 1/(4*kappa) in the estimate and `RETRIES` re-draws.

    Signals that the membership precision eps is too coarse for the
    body's geometry; try a smaller eps.
    """


class SepFromMem:
    """Separation oracle on a membership oracle for the body with the
    sandwich B(center, r) <= K <= B(center, R) that `geometry` gives,
    with a child random stream per query.

    The cut is estimated on the body normalized by that geometry
    (shifted by -center and divided by R), so eps is a membership
    precision in that frame, fixed for the body whatever a query's eta.
    MEM is asked at eps*R in the body's frame, which must lie below 1/2
    like every precision.  r1, the estimator's r2, the gradient floor
    1/(4 kappa) and the theoretical slack are derived once from
    `geometry.rescaled()`; an eps past 3/16, where r2 would exceed r1,
    is refused here.  rho enters only the theoretical slack.  An estimate
    below that floor is re-drawn up to `RETRIES` times before `DegenerateGradient`.
    """

    kind = SEP

    def __init__(self, mem, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, rho: float = RHO, mode: str = ANCHORED):
        g = geometry.rescaled()
        if not 0.0 < eps <= g.r:
            raise ValueError(f"need 0 < eps <= r/R, got eps={eps!r} r/R={g.r!r}")
        if not eps * geometry.R < 0.5:
            raise ValueError(f"need eps*R < 1/2, the membership precision bound; got "
                             f"eps*R={eps * geometry.R!r}")
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if mode not in (THEORETICAL, ANCHORED):
            raise ValueError(f"unknown slack mode {mode!r}")
        n, kappa = g.n, g.kappa
        schedule = n ** (1 / 6) * eps ** (1 / 3) * g.R ** (2 / 3) / kappa
        # clamp keeps the sampling box B_inf(0, 2 r1) inside B_2(0, r/2)
        self.r1 = min(schedule, g.r / (4.0 * math.sqrt(n)))
        self._params = EstimatorParams(np.zeros(n), self.r1, 4.0 * eps, 3.0 * kappa)
        self._floor = 1.0 / (4.0 * kappa)
        # the theoretical slack term in the normalized frame
        self._slack = (0.0 if mode == ANCHORED else
                       (50.0 / rho) * n ** (7 / 6) * g.R ** (2 / 3) * kappa * eps ** (1 / 3))
        self.geometry = geometry
        self.eps = eps
        self._mem = mem
        self._rng = rng
        self._queries = 0

    def __call__(self, y, eta) -> SeparationAnswer:
        """One separation query for y, on the next child stream.

        y is tested at precision eps*R.  The estimate runs at
        x = (y - center)/R in the normalized frame, through a
        `HeightOracle` that maps its points back into the body's frame;
        the cut is anchored at y, with its slack scaled back by R.
        """
        check_precision(eta)
        self._queries += 1
        rng = self._rng.child(self._queries)
        g = self.geometry
        y = as_vector_of(y, g.n)
        if self._mem(y, self.eps * g.R).inside:
            return SeparationAnswer()
        x = (y - g.center) / g.R
        x_norm = float(np.linalg.norm(x))
        if x_norm > 1.0:
            # x / ||x||, also where x.x overflows
            return SeparationAnswer(_halfspace(normalized(x), y, 0.0))

        params = self._params
        # Cap the bisection half-width so the per-coordinate derivative
        # noise bin_tol*||x||/r2 stays well below the gradient scale; the
        # naive params.eps/(2||x||) choice drowns the signal for skinny
        # bodies (large kappa).
        bin_tol = min(params.eps / (2.0 * x_norm),
                      NOISE_FRACTION * params.r2 / (g.n * x_norm))
        h_eval = HeightOracle(self._mem, g, x, bin_tol, self.eps).as_eval()
        for attempt in range(RETRIES + 1):
            gtilde = separate_convex_func(h_eval, params, rng.child(attempt))
            g_norm = float(np.linalg.norm(gtilde))
            if g_norm >= self._floor:
                return SeparationAnswer(
                    _halfspace(gtilde / g_norm, y, self._slack / g_norm * g.R))
        raise DegenerateGradient(
            f"||g|| < 1/(4 kappa) after {RETRIES + 1} attempts (eps={self.eps})")
