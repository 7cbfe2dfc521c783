"""The height function of a query point over a membership oracle.

For a query x and a direction point d inside the body, alpha_x(d) is
the largest alpha with d + alpha*x still in K, and the height is
h_x(d) = -alpha_x(d) * ||x||_2.  The height is convex and Lipschitz
near the origin, so its finite-difference subgradient separates x from
K.  alpha is evaluated by bisection against the membership oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EVAL, ProblemGeometry
from .geometry import as_vector


@dataclass
class HeightOracle:
    """Evaluates alpha_x / h_x to additive bisection tolerance bin_tol.

    The bisection bracket is [0, (R + ||d|| + delta)/||x||]: alpha = 0
    keeps the point at d (inside by precondition) and the upper end is
    guaranteed outside the delta-dilated body.  Noisy membership
    answers are taken as authoritative per query - no re-querying.
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

    def _bracket(self, d_norm: float) -> tuple[float, int]:
        hi = (self.geometry.R + d_norm + self.mem_delta) / self.x_norm
        iters = max(1, math.ceil(math.log2(hi / self.bin_tol)))
        return hi, iters

    def iterations_for(self, d: np.ndarray) -> tuple[float, int]:
        return self._bracket(float(np.linalg.norm(d)))

    def alpha_x(self, d) -> float:
        d = as_vector(d)
        hi, iters = self.iterations_for(d)
        fast = getattr(self.mem, "alpha_bisect_rows", None)
        if fast is not None:
            return float(fast(d[None, :], self.x, (hi,), (iters,), self.mem_delta)[0])
        lo = 0.0
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            if self.mem(d + mid * self.x, self.mem_delta).inside:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def alpha_rows(self, D) -> np.ndarray:
        """alpha_x at every row of the (k, n) stack D.

        A membership oracle with an `alpha_bisect_rows` fast path bisects
        the whole stack in lockstep; any other oracle gets `alpha_x` row
        by row, in row order, so its queries (and the draws of a noisy
        oracle) come in the same order as k separate calls.
        """
        D = np.ascontiguousarray(D, dtype=np.float64)
        if (D.ndim != 2 or D.shape[0] == 0 or D.shape[1] != self.x.size
                or not np.isfinite(D).all()):
            raise ValueError(f"expected a finite (k, {self.x.size}) stack with k >= 1, "
                             f"got shape {D.shape}")
        fast = getattr(self.mem, "alpha_bisect_rows", None)
        if fast is None:
            return np.array([self.alpha_x(d) for d in D])
        # d.dot(d) of a contiguous row is what np.linalg.norm computes,
        # so every row gets the bracket iterations_for gives it
        hi, iters = zip(*(self._bracket(math.sqrt(d.dot(d))) for d in D))
        return fast(D, self.x, np.array(hi), np.array(iters), self.mem_delta)

    def h_x(self, d) -> float:
        return -self.alpha_x(d) * self.x_norm

    def h_rows(self, D) -> np.ndarray:
        return -self.alpha_rows(D) * self.x_norm

    def as_eval(self):
        """EVAL-oracle view of h_x (the delta argument is ignored: the
        achieved additive error is bin_tol*||x|| plus the membership
        oracle's geometric blur).  Its `rows` attribute evaluates a
        (k, n) stack of points in one call."""
        oracle = lambda d, delta: self.h_x(d)
        oracle.kind = EVAL
        oracle.rows = lambda D, delta: self.h_rows(D)
        return oracle
