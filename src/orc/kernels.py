"""Hot numeric kernels: exact-body membership tests, the membership
bisection that evaluates the height function, and the central-cut
ellipsoid update, a rank-one update of the shape matrix's factor.
A cut costs a handful of numpy calls: its constants depend on the
dimension alone and are computed once per dimension.

All of it is numpy code.  `inside` tests one point and `inside_rows`
every row of a (k, n) stack.  `bisect_rows` is the one bisection loop:
it bisects k rays in lockstep, one containment test per round of the
rows still bisecting, so one subgradient estimate's 2n height
evaluations cost one numpy loop instead of 2n, and exactly the sum of
their round counts in row tests.  It takes the stack containment test
as a callable, so a body without a kernel encoding, or the epigraph
body whose every test is an oracle query, bisects through the same
loop.  `bisect_alpha` is a stack of one through it.

Reference bodies are encoded for the kernels as a tuple
(code, M, v, s):

    code 0  ball       v = center, s = radius
    code 1  box        v = center, s = l-infinity radius
    code 2  simplex    s = scale           (x >= 0, sum x <= s)
    code 3  h-polytope M = facet normals (unit rows), v = offsets
    code 4  ellipsoid  M = inverse shape matrix, v = center

All inside tests are closed (non-strict <=).
"""

from __future__ import annotations

import functools
import math

import numpy as np

BALL, BOX, SIMPLEX, HPOLY, ELLIPSOID = 0, 1, 2, 3, 4

_EMPTY_M = np.zeros((0, 0))
_EMPTY_V = np.zeros(0)

# There is no compiled build; perfbench/run.py's provenance reads this flag.
NUMBA_ENABLED = False


def inside(code: int, p: np.ndarray, M: np.ndarray, v: np.ndarray, s: float) -> bool:
    if code == BALL:
        q = p - v
        return bool(q @ q <= s * s)
    if code == BOX:
        return bool(np.max(np.abs(p - v)) <= s)
    if code == SIMPLEX:
        return bool(np.min(p) >= 0.0 and np.sum(p) <= s)
    if code == HPOLY:
        return bool(np.all(M @ p <= v))
    if code == ELLIPSOID:
        q = p - v
        return bool(q @ (M @ q) <= 1.0)
    raise ValueError(f"unknown body code {code}")


def inside_rows(code: int, P: np.ndarray, M: np.ndarray, v: np.ndarray,
                s: float) -> np.ndarray:
    """`inside` for every row of the (k, n) stack P, as a bool array."""
    if code == BALL:
        Q = P - v
        return np.einsum("ij,ij->i", Q, Q) <= s * s
    if code == BOX:
        return np.abs(P - v).max(axis=1) <= s
    if code == SIMPLEX:
        return (P.min(axis=1) >= 0.0) & (P.sum(axis=1) <= s)
    if code == HPOLY:
        return (P @ M.T <= v).all(axis=1)
    if code == ELLIPSOID:
        Q = P - v
        return np.einsum("ij,ij->i", Q @ M.T, Q) <= 1.0
    raise ValueError(f"unknown body code {code}")


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
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
        mid = 0.5 * (lo + hi)
    alpha[rows] = mid
    return alpha


def bisect_alpha(code: int, d: np.ndarray, x: np.ndarray, M: np.ndarray,
                 v: np.ndarray, s: float, hi: float, iters: int) -> float:
    """Largest alpha with d + alpha*x inside the body coded (code, M, v, s),
    after `iters` rounds from the bracket [0, hi]: a stack of one through
    `bisect_rows`."""
    rows = lambda P: inside_rows(code, P, M, v, s)
    return float(bisect_rows(rows, d[None, :], x, (hi,), (iters,))[0])


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
    # Ju[:, None] * u is np.outer(Ju, u), the same products
    return center - Ju / (n + 1.0), sigma * (J - beta * (Ju[:, None] * u))
