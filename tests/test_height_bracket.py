"""The height oracle's Lipschitz brackets against the full bisection.

A stack of k >= 2 rows is bisected inside brackets derived from the
height's Lipschitz bound around the stack's centre (`height` module
docstring).  Over the 2n-point stacks that SepFromMem's subgradient
estimates ask, every row's full bisection, a stack of one from [0, hi], must lie inside
its bracket, and the bracketed value must be within bin_tol of it.  A
weak MEM, answering either side of its precision band, checks the
bracket's precision term and the precision terms of the bound that x's
OUTSIDE answer gives.  On a thin polytope that bound saves the rounds
that the unit ball's bound spends.
"""

import math

import numpy as np
import pytest

from orc import separation
from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership, Simplex,
                        random_hpolytope)
from orc.core import MEM, ProblemGeometry, QueryLedger, RandomStream, wrap_with_ledger
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


def _estimate_stacks(body, eps, count, rng, scale=None):
    """The first `count` (2n, n) stacks, with their height oracles, that
    SepFromMem's estimates ask over the body's exact MEM, at points
    outside the body: at 0.5 to 1.0 times the outer radius, or, given a
    `scale`, at that multiple of the body's radial scale along a random
    direction.  The geometry's outer radius is 1.25 R, so that points
    outside a ball also reach the estimate."""
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
            if scale is None:
                y = g.center + geometry.R * gen.uniform(0.5, 1.0) * u / np.linalg.norm(u)
            else:
                u /= np.linalg.norm(u)
                y = g.center + scale * body.radial_scale(u) * u
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
    # the rows end within bin_tol/2 + bin_tol/16 of each other
    assert worst <= 0.5625


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


def test_an_outside_read_inside_the_band_needs_the_precision_terms():
    # a ball stated with R = 3r, so kappa = 3 and the unit ball's bound
    # A is about three times A' = (1 + kappa*delta + kappa*||d||)/(1 - kappa*delta).
    # x lies inside the ball, within its band: a weak MEM may read it
    # OUTSIDE, as the eroded ball does, and then answer the rows by the
    # dilated ball.  Every alpha then exceeds both bounds that drop a
    # kappa*delta term of A', and the brackets, clipped at A', still
    # hold each row's full bisection
    center, radius = np.array([0.5, -1.0, 2.0]), 1.5
    geometry = ProblemGeometry(3, radius, 3.0 * radius, center)
    kappa, mem_delta, bin_tol = geometry.kappa, 1e-2, 1e-6
    u = np.array([0.6, 0.0, -0.8])
    x = (1.0 / kappa - mem_delta / 2.0) * u
    y = center + geometry.R * x
    assert radius - mem_delta * geometry.R < np.linalg.norm(y - center) < radius

    def rows(P, delta):
        return np.linalg.norm(P - center, axis=1) <= radius + delta

    def mem(y, delta):
        raise AssertionError("asked as a stack")

    mem.kind, mem.rows = MEM, rows
    h = HeightOracle(mem, geometry, x, bin_tol, mem_delta)
    D = 1e-4 * np.random.default_rng(6).uniform(-1.0, 1.0, (6, 3))
    full = np.array([h.alpha_x(d) for d in D])
    norms = np.linalg.norm(D, axis=1)
    blur = kappa * mem_delta
    a_prime = (1.0 + blur + kappa * norms) / (1.0 - blur)
    assert (full > (1.0 + kappa * norms) / (1.0 - blur) + 100.0 * bin_tol).all()
    assert (full > 1.0 + blur + kappa * norms + 100.0 * bin_tol).all()
    assert (a_prime < 0.5 * (1.0 + norms + mem_delta) / h.x_norm).all()
    lo, hi, _ = h.brackets(D)
    assert (lo > 0.0).all()
    assert (hi <= a_prime).all()
    assert (lo <= full).all() and (full <= hi).all()
    bracketed = -h.as_eval().rows(D, 0.1) / h.x_norm
    assert np.abs(bracketed - full).max() <= bin_tol


def _unit_ball_schedule(h, D):
    """The centre-search rounds, the rows' round counts and A when
    `brackets` bounds alpha by the unit ball alone, by
    A = (1 + max_i ||D_i|| + delta)/||x||: the `height` docstring's
    formulas, written out here."""
    k, kappa, delta = len(D), h.geometry.kappa, h.mem_delta
    norms = np.linalg.norm(D, axis=1)
    c = D.mean(axis=0)
    a = (1.0 + norms.max() + delta) / h.x_norm
    lipschitz = kappa * a / (1.0 - kappa * norms.max())
    w = lipschitz * (np.linalg.norm(D - c, axis=1) + 2.0 * delta) + h.bin_tol
    width, rounds = (1.0 + np.linalg.norm(c) + delta) / h.x_norm, 0
    while width > 2.0 * w.mean():
        width /= k + 1
        rounds += 1
    return rounds, np.ceil(np.log2((width + 2.0 * w) * 8.0 / h.bin_tol)), a


def test_the_outside_read_saves_rounds_on_a_thin_polytope():
    # queries at 1.5 times the radial scale, as perfbench's sep_mem asks
    # them, reach x of norm far below 1 on a polytope with kappa > 100:
    # the unit ball's A is far above A', and every row's round count sits
    # at least log2(A/A') - 1 below the unit ball's schedule
    body = random_hpolytope(16, RandomStream(2).child("poly"))
    assert body.geometry.kappa > 100.0
    for h, D in _estimate_stacks(body, 1e-6, 6, RandomStream(16), scale=1.5):
        kappa, delta = h.geometry.kappa, h.mem_delta
        a_prime = (1.0 + kappa * delta + kappa * np.linalg.norm(D, axis=1).max()) / (
            1.0 - kappa * delta)
        rounds, unit_iters, a = _unit_ball_schedule(h, D)
        assert a / a_prime > 16.0
        _, _, iters = h.brackets(D)
        assert (unit_iters - iters >= math.log2(a / a_prime) - 1.0).all()
        ledger = QueryLedger()
        counted = HeightOracle(wrap_with_ledger(ExactMembership(body), ledger), h.geometry,
                               h.x, h.bin_tol, delta)
        counted.as_eval().rows(D, 0.1)
        assert ledger.count(MEM) < rounds * len(D) + unit_iters.sum()
