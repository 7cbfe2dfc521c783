"""The height oracle's Lipschitz brackets against the full bisection.

A stack of k >= 2 rows is bisected inside brackets derived from the
height's Lipschitz bound around the stack's centre (`height` module
docstring).  Over the 2n-point stacks that SepFromMem's subgradient
estimates ask, every row's full bisection, a stack of one from [0, hi], must lie inside
its bracket, and the bracketed value must be within bin_tol of it.  A
weak MEM, answering either side of its precision band, checks the
bracket's precision term.
"""

import numpy as np
import pytest

from orc import separation
from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, Simplex,
                        random_hpolytope)
from orc.core import MEM, ProblemGeometry, RandomStream
from orc.height import HeightOracle
from orc.separation import SepFromMem


def _bodies(n):
    gen = np.random.default_rng(n)
    axes = gen.uniform(0.3, 2.0, n)
    return [Ball(np.zeros(n), 1.0),
            Ball(np.linspace(-1.0, 2.0, n), 2.5),
            BoxBody(np.full(n, 0.5), 0.7),
            Simplex(n, 1.0),
            Ellipsoid(gen.uniform(-1.0, 1.0, n), np.diag(axes ** 2)),
            random_hpolytope(n, RandomStream(70 + n).child("poly"))]


def _estimate_stacks(body, eps, count, rng):
    """The first `count` (2n, n) stacks, with their height oracles, that
    SepFromMem's estimates ask over the body's exact MEM, at points
    outside the body.  The geometry's outer radius is 1.25 R, so that
    points outside a ball also reach the estimate."""
    g = body.geometry
    geometry = ProblemGeometry(g.n, g.r, 1.25 * g.R, g.center)
    cases = []

    class Recording(HeightOracle):
        def _alpha(self, D):
            if len(D) > 1:
                cases.append((HeightOracle(self.mem, self.geometry, self.x, self.bin_tol,
                                           self.mem_delta), D.copy()))
            return super()._alpha(D)

    sep = SepFromMem(ExactMembership(body), geometry, rng, eps=eps)
    gen = rng.generator()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(separation, "HeightOracle", Recording)
        while len(cases) < count:
            u = gen.normal(size=g.n)
            y = g.center + geometry.R * gen.uniform(0.5, 1.0) * u / np.linalg.norm(u)
            if not body.contains(y):
                sep(y, 0.1)
    return cases[:count]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_full_bisection_lies_in_its_bracket_and_within_bin_tol(n, eps):
    worst = 0.0
    for b, body in enumerate(_bodies(n)):
        for h, D in _estimate_stacks(body, eps, 3, RandomStream(n).child(b)):
            bin_tol = h.bin_tol
            lo, hi, _ = h.brackets(D)
            assert (lo > 0.0).all()  # the Lipschitz brackets ran
            full = np.array([h.alpha_x(d) for d in D])
            assert (lo <= full).all() and (full <= hi).all()
            bracketed = -h.as_eval().rows(D, 0.1) / h.x_norm
            gap = np.abs(bracketed - full).max()
            assert gap <= bin_tol
            worst = max(worst, gap / bin_tol)
    # the rows end within bin_tol/2 + bin_tol/8 of each other
    assert worst <= 0.625


def test_weak_membership_needs_the_precision_term():
    # a weak MEM may answer either way inside its band: one answers by the
    # dilated ball, the other by the eroded one.  The brackets either
    # oracle finds hold the full bisection of the other, although the two
    # differ by far more than the rows' spread: only the brackets'
    # precision term covers that
    center, radius = np.array([0.5, -1.0, 2.0]), 1.5
    body = Ball(center, radius)

    def banded(sign):
        def rows(P, delta):
            return np.linalg.norm(P - center, axis=1) <= radius + sign * delta

        def mem(y, delta):
            raise AssertionError("asked as a stack")

        mem.kind, mem.rows = MEM, rows
        return mem

    mem_delta = 1e-4
    for h, D in _estimate_stacks(body, 1e-10, 4, RandomStream(5)):
        bin_tol = h.bin_tol
        dilated = HeightOracle(banded(1.0), h.geometry, h.x, bin_tol, mem_delta)
        eroded = HeightOracle(banded(-1.0), h.geometry, h.x, bin_tol, mem_delta)
        full_dilated = np.array([dilated.alpha_x(d) for d in D])
        full_eroded = np.array([eroded.alpha_x(d) for d in D])
        spread = np.ptp(full_eroded) + bin_tol
        assert (full_dilated - full_eroded).min() > 10.0 * spread
        for h, other in ((eroded, full_dilated), (dilated, full_eroded)):
            lo, hi, _ = h.brackets(D)
            assert (lo > 0.0).all()
            assert (lo <= other).all() and (other <= hi).all()
