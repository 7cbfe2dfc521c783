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
of one.
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

    The bisection bracket is [0, (1 + ||d|| + delta)/||x||]: alpha = 0
    keeps the point at d (inside by precondition) and the upper end is
    guaranteed outside the delta-dilated normalized body.  Noisy
    membership answers are taken as authoritative per query - no
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

    def _brackets(self, d_norms: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The bracket ends and round counts of points with norms d_norms;
        log2 is math's, one point at a time."""
        hi = (1.0 + d_norms + self.mem_delta) / self.x_norm
        iters = [max(1, math.ceil(math.log2(h / self.bin_tol))) for h in hi.tolist()]
        return hi, iters

    def iterations_for(self, d: np.ndarray) -> tuple[float, int]:
        hi, iters = self._brackets(np.array([np.linalg.norm(d)]))
        return float(hi[0]), iters[0]

    def _alpha(self, D: np.ndarray) -> np.ndarray:
        """alpha_x at every row of a float64 (k, n) stack, taken as
        given, mapped into the body's frame once and bisected in
        lockstep."""
        # sqrt(vecdot) of a contiguous row is np.linalg.norm's
        # computation, so every row gets the bracket iterations_for gives it
        hi, iters = self._brackets(np.sqrt(np.vecdot(D, D)))
        iters = np.array(iters)
        g = self.geometry
        return kernels.bisect_rows(self._contains, g.center + g.R * D, g.R * self.x,
                                   hi, iters)

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
