"""Hot numeric kernels: the membership bisection that evaluates the
height function, and the central-cut ellipsoid update, a rank-one update
of the shape matrix's factor.  A cut costs a handful of numpy calls: its
constants depend on the dimension alone and are computed once per
dimension.

All of it is numpy code.  `bisect_rows` is the one bisection loop: it
bisects k rays in lockstep, one containment test per round of the rows
still bisecting, so one subgradient estimate's 2n height evaluations
cost one numpy loop instead of 2n, and exactly the sum of their round
counts in row tests.  It takes the stack containment test as a
callable: a body's `contains_rows`, or the epigraph body's, whose every
test is an oracle query.  `bisect_alpha` is a stack of one through it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# There is no compiled build; perfbench/run.py's provenance reads this flag.
NUMBA_ENABLED = False


def bisect_rows(contains_rows, D: np.ndarray, x: np.ndarray, hi, iters) -> np.ndarray:
    """Largest alpha with D[i] + alpha*x inside the body, for every row i.

    contains_rows maps a (k, n) stack to a bool array, one entry per
    row.  x is one (n,) direction shared by all rows; hi and iters give
    each row its own bracket [0, hi[i]] and round count.  Each round
    tests the rows still bisecting (iters[i] >= round) together, so a
    stack costs exactly sum(iters) row tests: a row that is done is not
    tested again, which matters when a test costs an oracle query.
    Every row gets exactly the midpoints, containment answers and alpha
    of its single-ray bisection.  Precondition per row: D[i] is inside
    and D[i] + hi[i]*x is outside.
    """
    hi = np.array(hi, dtype=np.float64)
    iters = np.asarray(iters)
    lo = np.zeros_like(hi)
    mid = 0.5 * (lo + hi)
    alpha = np.empty_like(mid)
    rows = np.arange(mid.size)  # the rows still bisecting
    ends = set(iters.tolist())
    for step in range(1, int(iters.max(initial=0)) + 1):
        if step - 1 in ends:
            # rows whose last round has passed leave the stack
            done = iters < step
            alpha[rows[done]] = mid[done]
            keep = ~done
            rows, D, iters = rows[keep], D[keep], iters[keep]
            lo, hi, mid = lo[keep], hi[keep], mid[keep]
        inside = contains_rows(D + mid[:, None] * x)
        # in place: lo = where(inside, mid, lo), hi = where(inside, hi,
        # mid), mid = 0.5 * (lo + hi)
        np.copyto(lo, mid, where=inside)
        np.copyto(hi, mid, where=~inside)
        np.add(lo, hi, out=mid)
        mid *= 0.5
    alpha[rows] = mid
    return alpha


def bisect_alpha(contains_rows, d: np.ndarray, x: np.ndarray, hi: float,
                 iters: int) -> float:
    """Largest alpha with d + alpha*x inside the body whose stack test is
    contains_rows, after `iters` rounds from the bracket [0, hi]: a stack
    of one through `bisect_rows`."""
    return float(bisect_rows(contains_rows, d[None, :], x, (hi,), (iters,))[0])


@functools.cache
def _cut_constants(n: int) -> tuple[float, float]:
    """(beta, sigma) of a central cut in dimension n >= 2: the rank-one
    step and the dilation up to the calibrated volume ratio."""
    target = math.exp(-1.0 / (2.0 * (n + 1)))
    beta = 1.0 - math.sqrt((n - 1.0) / (n + 1.0))
    # dilate the minimum-volume ellipsoid up to the calibrated ratio
    ratio_min = (n / (n + 1.0)) * (n * n / (n * n - 1.0)) ** ((n - 1) / 2.0)
    scale = (target / ratio_min) ** (2.0 / n)
    sigma = math.sqrt(n * n / (n * n - 1.0) * scale)
    return beta, sigma


def ellipsoid_cut_py(center: np.ndarray, J: np.ndarray,
                     g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central cut of {c + J z : ||z|| <= 1} by {y : <g, y - c> <= 0}.

    The ellipsoid is kept as the factor J of its shape matrix P = J J^T.
    The classical minimum-volume update of P is the rank-one update
    J (I - beta u u^T) of J, with u = J^T g / ||J^T g||, so the new shape
    is positive definite by construction.  It is then dilated so the
    volume ratio is exactly exp(-1/(2(n+1))) (containment is preserved;
    the dilation only grows the ellipsoid).  n == 1 degenerates to
    interval bisection with the same calibrated ratio.
    """
    n = center.size
    if n == 1:
        w = abs(J[0, 0])
        sign = 1.0 if g[0] > 0.0 else -1.0
        target = math.exp(-1.0 / (2.0 * (n + 1)))
        return center - sign * (w / 2.0), np.array([[w * target]])
    beta, sigma = _cut_constants(n)
    a = J.T @ g
    u = a / math.sqrt(a @ a)
    Ju = J @ u
    # sigma * (J - beta * (Ju[:, None] * u)) in one buffer: the same
    # products in the same order; Ju[:, None] * u is np.outer(Ju, u)
    step = Ju[:, None] * u
    step *= beta
    np.subtract(J, step, out=step)
    step *= sigma
    return center - Ju / (n + 1.0), step
