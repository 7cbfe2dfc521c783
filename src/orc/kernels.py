"""Hot numeric kernels: exact-body membership tests, the membership
bisection that evaluates the height function, and the central-cut
ellipsoid update.

The bisection runs in lockstep over a stack of rays: `bisect_rows`
bisects k rays together, one containment test of the whole (k, n)
stack per round, so one subgradient estimate's 2n height evaluations
cost one numpy loop instead of 2n.  The single-ray `bisect_py` is a
stack of one through the same kernel.  An optional numba build of the
single-ray loop is used for `bisect_alpha` when numba is importable and
ORC_NO_NUMBA is unset; `benchmarks/bench_kernels.py` times per-ray
against lockstep bisection.

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

import math
import os

import numpy as np

BALL, BOX, SIMPLEX, HPOLY, ELLIPSOID = 0, 1, 2, 3, 4

_EMPTY_M = np.zeros((0, 0))
_EMPTY_V = np.zeros(0)


# ---------------------------------------------------------------------------
# pure-numpy implementations

def inside_py(code: int, p: np.ndarray, M: np.ndarray, v: np.ndarray, s: float) -> bool:
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
    """`inside_py` for every row of the (k, n) stack P, as a bool array."""
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


def bisect_rows(code: int, D: np.ndarray, x: np.ndarray, M: np.ndarray,
                v: np.ndarray, s: float, hi, iters) -> np.ndarray:
    """Largest alpha with D[i] + alpha*x inside the body, for every row i.

    x is one (n,) direction shared by all rows; hi and iters give each
    row its own bracket [0, hi[i]] and round count.  All rows are tested
    together each round.  Row i's answer is taken after its own iters[i]
    rounds, so every row gets exactly the midpoints, containment answers
    and alpha of its single-ray bisection.  Precondition per row: D[i]
    is inside and D[i] + hi[i]*x is outside.
    """
    hi = np.array(hi, dtype=np.float64)
    iters = np.asarray(iters)
    lo = np.zeros_like(hi)
    mid = 0.5 * (lo + hi)
    alpha = mid.copy()
    shortest = int(iters.min()) if iters.size else 0
    for step in range(1, int(iters.max(initial=0)) + 1):
        inside = inside_rows(code, D + mid[:, None] * x, M, v, s)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
        mid = 0.5 * (lo + hi)
        if step >= shortest:
            np.copyto(alpha, mid, where=iters == step)
    return alpha


def bisect_py(code: int, d: np.ndarray, x: np.ndarray, M: np.ndarray,
              v: np.ndarray, s: float, hi: float, iters: int) -> float:
    """Largest alpha with d + alpha*x inside the body, by bisection.

    Precondition: d is inside and d + hi*x is outside.  Runs a fixed
    `iters` rounds, shrinking the bracket by half each time; a stack of
    one through `bisect_rows`.
    """
    return float(bisect_rows(code, d[None, :], x, M, v, s, (hi,), (iters,))[0])


def ellipsoid_cut_py(center: np.ndarray, P: np.ndarray,
                     g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central cut of {y: (y-c)^T P^-1 (y-c) <= 1} by {<g, y-c> <= 0}.

    The classical minimum-volume update, then dilated so the volume
    ratio is exactly exp(-1/(2(n+1))) (containment is preserved; the
    dilation only grows the ellipsoid).  n == 1 degenerates to interval
    bisection with the same calibrated ratio.
    """
    n = center.size
    target = math.exp(-1.0 / (2.0 * (n + 1)))
    if n == 1:
        w = math.sqrt(P[0, 0])
        sign = 1.0 if g[0] > 0.0 else -1.0
        new_center = center - sign * (w / 2.0) * np.ones(1)
        new_w = w * target
        return new_center, np.array([[new_w * new_w]])
    Pg = P @ g
    # near-flat directions can round the quadratic form negative; the
    # clamp makes such cuts act as (harmless) near-no-ops instead
    q = max(float(g @ Pg), 1e-16 * float(np.trace(P)))
    denom = math.sqrt(q)
    b = Pg / denom
    new_center = center - b / (n + 1.0)
    P_new = (n * n / (n * n - 1.0)) * (P - (2.0 / (n + 1.0)) * np.outer(b, b))
    # dilate the minimum-volume ellipsoid up to the calibrated ratio
    ratio_min = (n / (n + 1.0)) * (n * n / (n * n - 1.0)) ** ((n - 1) / 2.0)
    scale = (target / ratio_min) ** (2.0 / n)
    P_new = P_new * scale
    P_new = 0.5 * (P_new + P_new.T)
    return new_center, P_new


# ---------------------------------------------------------------------------
# numba implementations (same contracts, explicit loops)

def _inside_loop(code, p, M, v, s):
    n = p.shape[0]
    if code == 0:
        acc = 0.0
        for j in range(n):
            q = p[j] - v[j]
            acc += q * q
        return acc <= s * s
    if code == 1:
        m = 0.0
        for j in range(n):
            a = abs(p[j] - v[j])
            if a > m:
                m = a
        return m <= s
    if code == 2:
        tot = 0.0
        for j in range(n):
            if p[j] < 0.0:
                return False
            tot += p[j]
        return tot <= s
    if code == 3:
        for i in range(M.shape[0]):
            acc = 0.0
            for j in range(n):
                acc += M[i, j] * p[j]
            if acc > v[i]:
                return False
        return True
    # ellipsoid
    acc = 0.0
    for i in range(n):
        row = 0.0
        for j in range(n):
            row += M[i, j] * (p[j] - v[j])
        acc += row * (p[i] - v[i])
    return acc <= 1.0


def _bisect_loop(code, d, x, M, v, s, hi, iters):
    n = d.shape[0]
    p = np.empty(n)
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        for j in range(n):
            p[j] = d[j] + mid * x[j]
        if _inside_loop(code, p, M, v, s):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


NUMBA_ENABLED = os.environ.get("ORC_NO_NUMBA", "").lower() not in ("1", "true", "yes")

if NUMBA_ENABLED:
    try:
        from numba import njit

        # rebind the global so the jitted bisect resolves the jitted inside
        _inside_loop = njit(cache=True)(_inside_loop)
        inside_nb = _inside_loop
        bisect_nb = njit(cache=True)(_bisect_loop)
    except ImportError:  # numba is an optional extra
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    inside = inside_nb
    bisect_alpha = bisect_nb
else:
    inside = inside_py
    bisect_alpha = bisect_py
