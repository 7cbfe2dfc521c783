"""Randomized coordinate finite-difference subgradient estimation.

Given only a noisy evaluation oracle for a Lipschitz convex function,
sample a random box center y near the base point, a random probe z
inside the smaller box around y, and difference the function across
the full axis chord through z in every coordinate.  The expected
defect of the resulting approximate subgradient is controlled by the
almost-flatness of convex functions on most small boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import FuncSpec, Linear, Quadratic, UnsupportedVariant
from .core import EVAL, RandomStream, rows_of
from .geometry import as_vector


@dataclass
class EstimatorParams:
    """Sampling geometry for one subgradient estimate.

    r2 defaults to sqrt(eps * r1 / (sqrt(n) * L)), which balances the
    flatness defect against the eps/r2 noise amplification; overriding
    it is allowed (e.g. r2 -> 0 with an exact oracle) but it must not
    exceed r1.
    """

    x: np.ndarray
    r1: float
    eps: float
    L: float
    r2: float | None = None

    def __post_init__(self):
        self.x = as_vector(self.x)
        if not (self.r1 > 0 and self.L > 0 and self.eps >= 0):
            raise ValueError("need r1 > 0, L > 0, eps >= 0")
        if self.r2 is None:
            if self.eps == 0.0:
                raise ValueError("eps = 0 requires an explicit r2")
            self.r2 = math.sqrt(self.eps * self.r1 / (math.sqrt(self.n) * self.L))
        if not 0.0 < self.r2 <= self.r1:
            raise ValueError(
                f"need 0 < r2 <= r1 (got r2={self.r2!r}, r1={self.r1!r}); "
                "this requires eps <= r1*sqrt(n)*L")

    @property
    def n(self) -> int:
        return self.x.size


def sample_box_points(params: EstimatorParams, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """The (y, z) pair a given stream produces, in documented draw order."""
    gen = rng.generator()
    y = params.x + params.r1 * gen.uniform(-1.0, 1.0, params.n)
    z = y + params.r2 * gen.uniform(-1.0, 1.0, params.n)
    return y, z


def separate_convex_func(f_eval, params: EstimatorParams, rng: RandomStream) -> np.ndarray:
    """Approximate subgradient of f at params.x from 2n evaluations.

    f_eval(point, delta) -> float must have additive error at most
    params.eps on B_inf(x, 2*r1).  Exactly two evaluations per
    coordinate, at the endpoints of the axis chord of B_inf(y, r2)
    through z; no evaluation is reused.  The 2n points are evaluated as
    one (2n, n) stack in the order hi_0, lo_0, hi_1, lo_1, ...: f_eval's
    stack form, or one point at a time in that order (`core.rows_of`).
    """
    y, z = sample_box_points(params, rng)
    # rows 2i and 2i+1 are z with coordinate i on the faces y_i +/- r2
    i = np.arange(params.n)
    points = np.repeat(z[None, :], 2 * params.n, axis=0)
    points[2 * i, i] = y + params.r2
    points[2 * i + 1, i] = y - params.r2
    values = rows_of(f_eval, EVAL)(points, params.eps)
    return (values[0::2] - values[1::2]) * (1.0 / (2.0 * params.r2))


def expected_flatness_defect(f: FuncSpec, x, r1: float, r2: float,
                             samples: int, rng: RandomStream) -> float:
    """Monte Carlo estimate of E_y E_z ||grad f(z) - g(y)||_1.

    g(y) is the average gradient over B_inf(y, r2); for functions with
    an affine gradient (linear, quadratic) that average is exactly
    grad f(y), which is what makes the estimate computable in closed
    form.  Test instrument only.
    """
    if not isinstance(f, (Linear, Quadratic)):
        raise UnsupportedVariant(
            "flatness defect needs an affine-gradient function (Linear/Quadratic)")
    x = as_vector(x)
    gen = rng.generator()
    n = x.size
    total = 0.0
    for _ in range(samples):
        y = x + r1 * gen.uniform(-1.0, 1.0, n)
        z = y + r2 * gen.uniform(-1.0, 1.0, n)
        total += float(np.sum(np.abs(f.grad(z) - f.grad(y))))
    return total / samples
