"""The library builds a separation reply's halfspace from vectors it has
already checked, without a second check: the public `HalfSpace`
constructor must accept every such reply as it stands."""

import numpy as np
import pytest

from orc.bodies import (Ball, BoxBody, Ellipsoid, ExactMembership,
                        ExactOptimization, ExactSeparation, HPolytope,
                        Simplex, random_hpolytope)
from orc.core import RandomStream
from orc.geometry import HalfSpace, unit
from orc.reductions import sep_from_opt
from orc.separation import THEORETICAL, SepFromMem

# v.v of a query with entries near 1e200 overflows, by design of the check
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

EXTREMES = (1e-170, -1e-170, 1e16, -1e16, 1e200, -1e200)


def _exact_bodies(n):
    gen = np.random.default_rng(40 + n)
    Q, _ = np.linalg.qr(gen.normal(size=(n, n)))
    shifted = gen.uniform(-0.3, 0.3, size=n)
    return [Ball(shifted, 1.2), BoxBody(shifted, 0.8), Simplex(n, 1.5),
            random_hpolytope(n, RandomStream(n).child("poly")),
            HPolytope(np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n), np.zeros(n)),
            Ellipsoid(shifted, (Q * gen.uniform(0.3, 2.0, size=n)) @ Q.T)]


def _queries(spec, gen, seeded):
    """Seeded points at three scales, points one ulp either side of the
    boundary, and points with a coordinate, or every coordinate, at
    1e-170, 1e16 or 1e200 in magnitude."""
    n = spec.dim
    x0 = spec.geometry.center
    scales = spec.geometry.R * gen.choice([0.5, 1.0, 3.0], size=(seeded, 1))
    points = list(x0 + scales * gen.normal(size=(seeded, n)))
    for _ in range(4):
        u = unit(gen.normal(size=n))
        b = x0 + spec.radial_scale(u) * u
        points += [b, np.nextafter(b, b + u), np.nextafter(b, b - u)]
    for value in EXTREMES:
        p = b.copy()
        p[0] = value
        points += [p, np.full(n, value)]
    return points


def _accepted(answer, y):
    """The reply's halfspace, after the public constructor accepted it."""
    h = answer.halfspace
    if h is None:
        return None
    public = HalfSpace(h.normal, h.anchor, h.slack)
    # the public constructor keeps float64 1-d arrays as they are
    assert public.normal is h.normal and public.anchor is h.anchor
    np.testing.assert_array_equal(h.anchor, y)
    return h


@pytest.mark.parametrize("n", [2, 3, 6])
def test_exact_separation_replies_pass_the_public_checks(n):
    gen = np.random.default_rng(n)
    for spec in _exact_bodies(n):
        sep = ExactSeparation(spec)
        outside = 0
        for y in _queries(spec, gen, 60):
            outside += _accepted(sep(y, 0.01), y) is not None
        assert outside >= 20, type(spec).__name__


@pytest.mark.parametrize("mode", ["anchored", THEORETICAL])
def test_sep_from_mem_replies_pass_the_public_checks(mode):
    # seeded and ulp points near the body take the height estimate, the
    # far ones the radial branch
    gen = np.random.default_rng(7)
    for spec in (Ball(np.array([0.1, -0.2, 0.0]), 1.0), BoxBody(np.zeros(3), 0.5), Simplex(3)):
        sep = SepFromMem(ExactMembership(spec), spec.geometry, RandomStream(3),
                         eps=1e-6, mode=mode)
        slacks = [h.slack for y in _queries(spec, gen, 10)
                  if (h := _accepted(sep(y, 0.01), y)) is not None]
        assert len(slacks) >= 10, type(spec).__name__
        # the estimate's slack is positive in theoretical mode
        assert any(slacks) == (mode == THEORETICAL), type(spec).__name__


def test_sep_from_opt_replies_pass_the_public_checks():
    spec = Ball(np.zeros(2), 1.0)
    sep = sep_from_opt(ExactOptimization(spec), spec.geometry,
                       RandomStream(7), eps=0.02, sep_eps=1e-4)
    for y in (np.array([1.5, 0.0]), np.array([-0.9, 1.3]), np.array([0.0, -3.0])):
        h = _accepted(sep(y, 0.01), y)
        assert h is not None
        assert float(h.normal @ unit(y)) > 0.9
