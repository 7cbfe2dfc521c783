"""Optimization from separation: an analytic-centre cutting-plane engine.

`optimize_linear_accpm` has the contract of `ellipsoid.optimize_linear`
(the same `OptimizerConfig` and `OptimizationAnswer`, and an empty
interior reported as a `None` maximizer) but spends O(n log(R/(r eps)))
separation queries, not O(n^2 log), and stops as soon as a certificate
proves the best feasible point good enough, or, given a threshold
gamma, as soon as a feasible centre beats it.  It is the central-cut
analytic-centre method (ACCPM, Goffin & Vial; Atkinson & Vaidya, Math.
Programming 69, 1995) without cut dropping.

The localization set is the polytope P = {x : A x <= b}, at first the
box center +/- R, which contains K.  Each iteration:

* finds the analytic centre x of P, the minimizer of the barrier
  phi(x) = -sum log(b_i - a_i . x), by Newton's method, damped by
  1/(1 + lam) while the Newton decrement lam = sqrt(g^T H^-1 g) is at
  least 1/4 and full below, from the last centre pulled back into the
  new P along its Dikin direction (half a Dikin radius);
* asks SEP at x and adds the central cut a . y <= a . x, where a is the
  separating normal, or -c/||c|| when x is feasible, which then also
  competes for the best feasible point.

Every separating cut keeps K, and every objective cut keeps the points
of K that beat the best feasible point so far, so a maximizer of <c, .>
over K that beats it stays in P.

Certificate.  With slacks s_i = b_i - a_i . x, H = sum a_i a_i^T / s_i^2
and u_i = a_i . (y - x) / s_i for a y in P, every u_i <= 1 and
sum u_i = g . (y - x) <= lam ||y - x||_H, where ||v||_H^2 = v^T H v =
sum u_i^2.  When some u_i <= 0, the negative u_i sum to at most
m - 1 + lam ||y - x||_H, so ||y - x||_H^2 <= (m - 1 + lam ||y - x||_H)^2
+ m - 1 and ||y - x||_H <= (m - 1/2) / (1 - lam); when every u_i > 0,
||y - x||_H^2 <= sum u_i <= lam ||y - x||_H.  So for lam < 1,

    P  is inside  {y : ||y - x||_H <= rho},   rho = m / (1 - lam),

which at the exact centre (lam = 0) is the classical radius m and at an
approximate centre is inflated by 1 / (1 - lam).  Hence
max_P <c, .> <= <c, x> + rho sqrt(c^T H^-1 c), and the engine stops when
that bound exceeds the best feasible value by at most tol = eps ||c|| R.

Thin polytope.  A ball inside P lies inside that ellipsoid, so its
radius is at most the ellipsoid's shortest semi-axis,
rho / sqrt(lambda_max(H)).  Once that is below r eps the engine stops
too.  With no feasible centre, P still contains K, which then holds no
ball of radius r eps: an empty interior, reported as the ellipsoid
reports it.  With one, P contains the points of K that beat it, and if
the best value fell short of the maximum by g, those points would
contain a ball of radius r g / (||c|| (R + r)) (the cone from the
maximizer over the inner ball B(center, r), cut at the best value): so
g <= eps ||c|| (R + r), the ellipsoid's own guarantee.  This test also
keeps every slack at or above r eps / rho at a centre, far above
rounding.

Violation exit.  Given a threshold gamma, the engine also returns the
first feasible centre x with <c, x> > gamma: a witness for VIOL(c,
gamma), which needs no certificate.  Up to that centre the run is the
one without the exit, query for query, and the best value only grows,
so a run that never exits is that run entirely, and it exits exactly
when that run's best value beats gamma.  The default gamma = +inf
never exits; a NaN gamma is refused.

The certificates trust every cut, so an oracle whose cuts slice K (SEP
from MEM near the boundary in higher dimensions) can make the engine
stop early; `opt_from_mem` stays on the ellipsoid for that reason.

Iteration cap.  To reach either stop, P's volume, at first (2R)^n, must
fall below that of a ball of radius r eps or of the thin slab the
certificate needs: a factor of at most (2R/(r eps))^n.  A cut through
a centre that removes a fixed fraction of the volume, as the centre of
gravity's does (at least 1 - 1/e, Grünbaum), does that in
n log(2R/(r eps)) / log(e/(e - 1)), about 2.2 n log(2R/(r eps)) cuts;
Atkinson & Vaidya prove the same order for analytic centres when the
constraint count is kept O(n) by dropping cuts.  Without dropping, the
constraint count grows by one per cut, the analytic centre drifts
toward the older cuts, and each cut removes less.  The cap is
`ITER_FACTOR` = 4 times n log(2R/(r eps)), a little under twice the
centre-of-gravity count: the engine itself stops at 0.9-1.6 times
n log(2R/(r eps)) queries on exact SEP over the ball, box and simplex
for n = 2-16 at eps = 1e-3.  Only this engine raises `MaxItersExhausted`,
when it reaches the cap with neither a feasible centre nor a certificate.

Cost per iteration: O(m n^2) for each Newton step, one n x n solve and
at most one n x n eigenvalue problem.  H is positive semidefinite, so
lambda_max(H) <= trace(H), and the thin test asks `eigvalsh` only when
rho < r eps sqrt(2 trace(H)); above that bound the centre cannot be
thin.  The factor 2 is far above the rounding of either side, so every
decision is the one `eigvalsh` alone makes.  On perfbench's web the
bound decides every thin test of `sep_from_opt`.  There is no cut
dropping: m = 2n + iterations, at most 13 in `sep_from_opt` on
perfbench's web.
"""

from __future__ import annotations

import math

import numpy as np

from .core import OptimizationAnswer, ProblemGeometry
from .ellipsoid import OptimizerConfig
from .geometry import as_vector_of, normalized


class MaxItersExhausted(RuntimeError):
    """The iteration cap spent with neither a feasible centre nor a
    certificate: nothing can be asserted about the body."""


#: The iteration cap is this many times n log(2R/(r eps)).
ITER_FACTOR = 4.0

#: Newton stops once the decrement lam falls to this; the certificate
#: radius is then inflated by at most 1 / (1 - NEWTON_TOL).
NEWTON_TOL = 1e-3

#: Newton steps are damped by 1 / (1 + lam) above this decrement and
#: taken in full below it, where the decrement falls quadratically.
FULL_STEP = 0.25

#: Newton steps per centre; each damped step lowers the barrier by at
#: least 1/4 - log(5/4), so far more than any warm start needs.
NEWTON_STEPS = 60

#: A new centre's warm start: the last centre moved this fraction of the
#: Dikin radius away from the cut through it, into the new polytope.
PULL_BACK = 0.5


def _iteration_cap(cfg: OptimizerConfig, geometry: ProblemGeometry) -> int:
    """The module docstring's iteration cap, ITER_FACTOR * n log(2R/(r eps))."""
    return math.ceil(ITER_FACTOR * geometry.n * math.log(2.0 * geometry.R / (geometry.r * cfg.eps)))


def _analytic_centre(A: np.ndarray, b: np.ndarray, x: np.ndarray):
    """Newton's method for the analytic centre of {A y <= b} from an
    interior x.  Returns the last iterate, the barrier Hessian there and
    its Newton decrement."""
    for k in range(NEWTON_STEPS):
        inv = 1.0 / (b - A @ x)
        scaled = A * inv[:, None]
        H = scaled.T @ scaled
        g = A.T @ inv
        step = np.linalg.solve(H, g)
        lam = math.sqrt(max(float(g @ step), 0.0))
        if lam <= NEWTON_TOL or k == NEWTON_STEPS - 1:
            break
        x = x - (step if lam < FULL_STEP else step / (1.0 + lam))
    return x, H, lam


def _thin(H: np.ndarray, rho: float, floor: float) -> bool:
    """The thin test, rho < floor sqrt(lambda_max(H)): the bounding
    ellipsoid's shortest semi-axis is below floor.  `eigvalsh` runs only
    below the trace bound of the module docstring."""
    return (rho < floor * math.sqrt(2.0 * H.trace())
            and rho < floor * math.sqrt(np.linalg.eigvalsh(H)[-1]))


def optimize_linear_accpm(cfg: OptimizerConfig, sep, geometry: ProblemGeometry,
                          c, gamma: float = math.inf) -> OptimizationAnswer:
    """Maximize <c, y> over the body behind `sep` by central cuts through
    analytic centres; see the module docstring for the certificate, the
    empty-interior test, the violation exit at `gamma` and the iteration
    cap.  Returns the best feasible centre, or `None` as the maximizer
    for an empty interior, and raises `MaxItersExhausted` when the cap is
    reached with neither.  At c = 0 the centre, in K, is a maximizer,
    and no SEP is asked."""
    c = as_vector_of(c, geometry.n)
    if not c.any():
        return OptimizationAnswer(geometry.center.copy())
    gamma = float(gamma)
    if math.isnan(gamma):
        raise ValueError("gamma must not be NaN")
    # a feasible centre's cut: -c/||c||, normalized as every cut normal is
    objective_cut = normalized(-normalized(c))
    n = geometry.n
    sep_delta = cfg.resolved_sep_delta(geometry)
    cap = _iteration_cap(cfg, geometry)
    tol = cfg.eps * float(np.linalg.norm(c)) * geometry.R
    floor = geometry.r * cfg.eps

    A = np.empty((2 * n + cap, n))
    b = np.empty(2 * n + cap)
    A[:n], A[n:2 * n] = np.eye(n), -np.eye(n)
    b[:n] = geometry.center + geometry.R
    b[n:2 * n] = geometry.R - geometry.center
    m = 2 * n
    x = geometry.center

    best = None
    best_val = -math.inf
    for _ in range(cap):
        x, H, lam = _analytic_centre(A[:m], b[:m], x)
        if lam < 1.0:
            rho = m / (1.0 - lam)
            # a thin P's None best is the empty-interior answer
            if _thin(H, rho, floor):
                return OptimizationAnswer(best)
            if best is not None and (float(c @ x) - best_val
                                     + rho * math.sqrt(float(c @ np.linalg.solve(H, c)))) <= tol:
                return OptimizationAnswer(best)
        h = sep(x, sep_delta).halfspace
        if h is None:
            val = float(c @ x)
            if val > gamma:
                return OptimizationAnswer(x)
            if val > best_val:
                best, best_val = x, val
            a = objective_cut
        else:
            a = normalized(h.normal)
        A[m], b[m] = a, float(a @ x)
        m += 1
        d = np.linalg.solve(H, a)
        x = x - (PULL_BACK / math.sqrt(float(a @ d))) * d
    if best is not None:
        return OptimizationAnswer(best)
    raise MaxItersExhausted(
        f"no feasible centre within {cap} iterations and no empty-interior certificate")
