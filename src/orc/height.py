"""The height function of a query point over a membership oracle.

The height oracle works on the body normalized by its geometry: shifted
by -center and divided by R, so that it lies in the unit ball.  For a
query x and a direction point d inside the normalized body, alpha_x(d)
is the largest alpha with d + alpha*x still in it, and the height is
h_x(d) = -alpha_x(d) * ||x||_2.  The height is convex and Lipschitz
near the origin, so its finite-difference subgradient separates x from
the body.

alpha is evaluated by bisection against the membership oracle, which
answers in the body's own frame.  `HeightOracle` is the one place that
maps between the two: a stack of base points D is mapped to
center + R*D once, the direction to R*x and the precision to
mem_delta*R, and `kernels.bisect_rows` bisects the mapped rays in
lockstep.  The membership oracle's stack form (`core.rows_of`: its
`rows(P, delta)`, a bool array, True for INSIDE, or the one fallback,
one query per row) answers each round.  A single evaluation is a stack
of one, bisected from its full bracket [0, (1 + ||d|| + delta)/||x||].

A stack of k >= 2 rows is bisected inside brackets that the height's
Lipschitz bound gives.  Let gamma be the gauge of the normalized body
K.  K holds B(0, 1/kappa), so gamma is kappa-Lipschitz and
gamma(d) <= kappa*||d||; K lies in B(0, 1), so alpha(d) <= A with
A = (1 + ||d|| + delta)/||x||.  Take d with gamma(d) <= g0 < 1 and
a = alpha(d).  phi(t) = gamma(d + t*x) is convex with phi(0) <= g0 and
phi(a) = 1, so phi(t) <= 1 - (1 - g0)*(a - t)/a for t <= a and
phi(t) >= 1 + (1 - g0)*(t - a)/a for t >= a.  For a second such point
d', gamma(d' + t*x) <= phi(t) + kappa*||d - d'||, which stays below 1
for t < a - a*kappa*||d - d'||/(1 - g0); with the roles swapped,

    |alpha(d) - alpha(d')| <= L*||d - d'||,  L = kappa*A/(1 - g0),

which at g0 = 1/2 is the bound 2*kappa*(1 + ||d||)/||x|| that the
gauge's Lipschitz constant and its convexity along the ray give.  A MEM
of precision delta answers INSIDE only inside K + delta*B, which lies
in (1 + kappa*delta)*K, and OUTSIDE only outside the erosion of K by
delta, which holds (1 - kappa*delta)*K; the same two slopes put both
bodies' alpha within kappa*delta*a/(1 - g0) <= L*delta of a.  A
bisection keeps its lower end at an INSIDE answer and its upper end at
an OUTSIDE one, so it ends within L*delta plus its final half-width of
alpha.

`brackets` takes g0 = kappa*max_i ||D_i|| per stack and requires
g0 <= 1/2; a stack outside that keeps its full brackets.  Inside it, the
rows' mean c is inside by convexity, and the stack first locates
alpha(c) by a (k+1)-ary search: each round asks k points spaced evenly
in c's bracket, one `rows` call, and keeps the cell between the last
point before the first OUTSIDE answer and that answer.  The search stops
once c's bracket is no wider than twice the rows' mean half-width
w_i = L*(||D_i - c|| + 2*delta) + bin_tol.  By the bound above, a full
bisection of row i ends inside [lo_c - w_i, hi_c + w_i], clipped to
[0, hi_i]; every row bisects inside its clipped bracket, in lockstep,
down to bin_tol/4.  A round count depends on the stack and the geometry
alone: the centre's bracket shrinks by k + 1 per round whatever the
answers, and a row's count comes from its unclipped bracket width.  The
full bisection ends within bin_tol/2 of alpha and a bracketed row
within bin_tol/8, so the two differ by less than bin_tol.  The finer
end costs two rounds a row: the estimate divides height differences by
2*r2, so rounding enters the cut directly, and rows ended at bin_tol
gave perfbench's sep_mem more unsound cuts than the full bisection did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import EVAL, MEM, ProblemGeometry, rows_of, single_of
from .geometry import as_vector, as_vector_of


@dataclass
class HeightOracle:
    """Evaluates alpha_x / h_x of the normalized body to additive
    bisection tolerance bin_tol.

    The full bisection bracket is [0, (1 + ||d|| + delta)/||x||]:
    alpha = 0 keeps the point at d (inside by precondition) and the
    upper end is guaranteed outside the delta-dilated normalized body;
    a stack's rows may take narrower Lipschitz brackets (`brackets`).
    Noisy membership answers are taken as authoritative per query - no
    re-querying.
    """

    mem: object
    geometry: ProblemGeometry
    x: np.ndarray
    bin_tol: float
    mem_delta: float

    def __post_init__(self):
        self.x = as_vector(self.x)
        self.x_norm = float(np.linalg.norm(self.x))
        if self.x_norm <= 0.0:
            raise ValueError("height direction x must be nonzero")
        if not self.bin_tol > 0.0:
            raise ValueError("bin_tol must be positive")
        delta = self.mem_delta * self.geometry.R
        rows = rows_of(self.mem, MEM)
        self._contains = lambda P: rows(P, delta)

    def brackets(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's bracket ends lo, hi and round count for a float64
        (k, n) stack, taken as given.  The full brackets' counts take
        log2 from math, one row at a time.  A stack takes the Lipschitz
        brackets of the module docstring where they apply; the centre
        search runs here, k MEM queries a round."""
        # sqrt(vecdot) of a contiguous row is np.linalg.norm's computation,
        # so a single point gets the full bracket its norm gives
        norms = np.sqrt(np.vecdot(D, D))
        hi = (1.0 + norms + self.mem_delta) / self.x_norm
        k = len(hi)
        kappa = self.geometry.kappa
        d_max = float(norms.max())
        g0 = kappa * d_max
        if k == 1 or g0 > 0.5:
            iters = [max(1, math.ceil(math.log2(h / self.bin_tol))) for h in hi.tolist()]
            return np.zeros_like(hi), hi, np.array(iters)
        c = D.sum(axis=0) / k
        offsets = D - c
        lipschitz = kappa * (1.0 + d_max + self.mem_delta) / (self.x_norm * (1.0 - g0))
        w = lipschitz * (np.sqrt(np.vecdot(offsets, offsets)) + 2.0 * self.mem_delta)
        w += self.bin_tol
        hi_c = (1.0 + math.sqrt(c.dot(c)) + self.mem_delta) / self.x_norm
        width, rounds, target = hi_c, 0, 2.0 * float(w.sum()) / k
        while width > target:
            width /= k + 1
            rounds += 1
        # w >= bin_tol, so every row takes at least three rounds
        iters = np.ceil(np.log2((width + 2.0 * w) * (4.0 / self.bin_tol))).astype(np.int64)
        lo_c, hi_c = self._search_centre(c, hi_c, k, rounds)
        return np.maximum(lo_c - w, 0.0), np.minimum(hi_c + w, hi), iters

    def _search_centre(self, c: np.ndarray, hi: float, k: int,
                       rounds: int) -> tuple[float, float]:
        """alpha_x(c)'s bracket after `rounds` rounds of (k+1)-ary search
        from [0, hi], k points a round, in the body's frame."""
        g = self.geometry
        p, x = g.center + g.R * c, g.R * self.x
        steps = np.arange(k + 2) / (k + 1.0)
        lo = 0.0
        for _ in range(rounds):
            ends = lo + (hi - lo) * steps
            inside = self._contains(p + ends[1:-1, None] * x)
            j = k if inside.all() else int(inside.argmin())
            lo, hi = float(ends[j]), float(ends[j + 1])
        return lo, hi

    def _alpha(self, D: np.ndarray) -> np.ndarray:
        """alpha_x at every row of a float64 (k, n) stack, taken as
        given, mapped into the body's frame once and bisected in
        lockstep inside its `brackets`."""
        lo, hi, iters = self.brackets(D)
        g = self.geometry
        return kernels.bisect_rows(self._contains, g.center + g.R * D, g.R * self.x,
                                   hi, iters, lo)

    def alpha_x(self, d) -> float:
        """alpha_x at one point: a stack of one."""
        d = as_vector_of(d, self.x.size)
        return float(self._alpha(d[None, :])[0])

    def as_eval(self):
        """EVAL-oracle view of h_x (the delta argument is ignored: the
        achieved additive error is bin_tol*||x|| plus the membership
        oracle's geometric blur).  Its `rows` evaluates a float64 (k, n)
        stack of points in one call, taken as given, and a single query
        is `rows` on a stack of one (`core.single_of`)."""
        return single_of(EVAL, lambda D, delta: -self._alpha(D) * self.x_norm, self.x.size)
