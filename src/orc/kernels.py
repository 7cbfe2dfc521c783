"""Hot numeric kernels: the bisection loop of the height function and
the bisecting reductions, and the central-cut ellipsoid update, a
rank-one update of the shape matrix's factor.  The factor is kept as
scale * M, and a cut updates M in place and returns the new center and
scale, with constants that depend on the dimension alone and are
computed once per dimension.  The cut is eight numpy operations: three
`ndarray.dot` products, the outer product as one broadcast product and
one in-place subtraction, two in-place scalings and the new center.  At
n <= 16 each costs about as much as its arithmetic, so the cut uses the
cheapest call of each: `ndarray.dot` rather than `@`, and `Ma[:, None] * a`
rather than `np.multiply.outer`, which compute the same products.  The
cut normal need not be unit: the update reads only its direction.

All of it is numpy code.  `bisect_rows` is the one bisection loop: it
bisects k rays in lockstep, one containment test per round of the rows
still bisecting, so a stack costs one numpy loop and exactly the sum of
its rows' round counts in row tests.  A stack of one (the support
bisection of every `reductions.opt_from_val` answer) runs a loop of
Python floats instead, 1.8 against 4.9 us a round at n = 3, with the
same midpoints, stacks tested and alpha.  It takes the stack test as a
callable: an oracle's stack form (`core.rows_of`), whose every row test
is a query: MEM's from `height.HeightOracle` (in
`reductions.opt_from_val`, MEM of the polar body: one VAL query per row)
and `reductions.eval_from_mem_epigraph`, VAL's from
`reductions.eval_support_from_val`.  `ellipsoid.opt_from_viol` keeps its
own loop: it returns the last witness, not the bisected value, and
checks each witness against its threshold.  `bisect_alpha`, a stack of
one, is reached only through `bodies.ExactMembership.alpha_bisect`,
which no library code calls: both, and `NUMBA_ENABLED`, are kept for
perfbench, whose span table patches them by name (`test_perfbench_names`
guards the names).
"""

from __future__ import annotations

import functools
import math

import numpy as np

# There is no compiled build; perfbench/run.py's provenance reads this flag.
NUMBA_ENABLED = False


def bisect_rows(contains_rows, D: np.ndarray, x: np.ndarray, hi, iters,
                lo=None) -> np.ndarray:
    """Largest alpha with D[i] + alpha*x inside the body, for every row i.

    contains_rows maps a (k, n) stack to a bool array, one entry per
    row.  x is one (n,) direction shared by all rows; lo, hi and iters
    give each row its own bracket [lo[i], hi[i]] (lo defaults to zeros)
    and round count.  Each round tests the rows still bisecting
    (iters[i] >= round) together, so a stack costs exactly sum(iters)
    row tests: a row that is done is not tested again, which matters
    when a test costs an oracle query.  Every row gets exactly the
    midpoints, containment answers and alpha of its single-ray
    bisection from its bracket.  Precondition per row: D[i] + lo[i]*x
    is inside and D[i] + hi[i]*x is outside.
    """
    if len(hi) == 1:
        # a stack of one: the same midpoints on Python floats
        lo = 0.0 if lo is None else float(lo[0])
        hi = float(hi[0])
        for _ in range(int(iters[0])):
            mid = 0.5 * (lo + hi)
            if contains_rows(D + mid * x)[0]:
                lo = mid
            else:
                hi = mid
        return np.array([0.5 * (lo + hi)])
    hi = np.array(hi, dtype=np.float64)
    iters = np.asarray(iters)
    lo = np.zeros_like(hi) if lo is None else np.array(lo, dtype=np.float64)
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


#: the power of two `ellipsoid_cut_py` moves from its scale into M
_FOLD = 2.0 ** 32


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


def ellipsoid_cut_py(center: np.ndarray, M: np.ndarray, scale: float,
                     g: np.ndarray) -> tuple[np.ndarray, float]:
    """Central cut of {c + scale M z : ||z|| <= 1} by {y : <g, y - c> <= 0}.

    The ellipsoid is kept as the factor J = scale * M of its shape matrix
    P = J J^T.  M is updated in place and the new center and scale are
    returned.  The classical minimum-volume update of P is the rank-one
    update J (I - beta u u^T) of J, with u = J^T g / ||J^T g||, so the new
    shape is positive definite by construction; u does not depend on
    g's length or on scale, so g need not be unit and the scale rides
    outside the update.  The factor is then dilated by sigma so the
    volume ratio is exactly exp(-1/(2(n+1))) (containment is preserved;
    the dilation only grows the ellipsoid); the dilation goes to scale.
    M shrinks along the cut normals while scale grows by sigma per cut,
    so once scale passes 2^32 that power of two moves into M: exact, so
    the bits of J do not depend on when it happens.  n == 1 degenerates
    to interval bisection with the same calibrated ratio.
    """
    n = center.size
    if n == 1:
        w = scale * abs(M[0, 0])
        sign = 1.0 if g[0] > 0.0 else -1.0
        M[0, 0] = abs(M[0, 0]) * math.exp(-0.25)  # exp(-1/(2(n+1))) at n = 1
        return center - sign * (w / 2.0), scale
    beta, sigma = _cut_constants(n)
    a = g.dot(M)  # M^T g
    aa = a.dot(a)
    Ma = M.dot(a)
    # M - beta (M u) u^T, with u = a / sqrt(aa), as M - outer(Ma, beta a / aa)
    a *= beta / aa
    M -= Ma[:, None] * a
    Ma *= scale / ((n + 1.0) * math.sqrt(aa))
    scale *= sigma
    if scale > _FOLD:
        M *= _FOLD
        scale /= _FOLD
    return center - Ma, scale
