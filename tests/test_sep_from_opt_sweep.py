"""`sep_from_opt` over exact OPT across bodies, dimensions and query depths.

The chain runs on the polar body of (K - x0)/R (see its docstring).
Bodies: the ball, the box, the simplex and a random ellipsoid at
n = 2/4/8/16, and `random_hpolytope` at n = 2/4/8.  Queries lie at 0.95,
1.02, 1.1 and 1.5 times the radial scale along seeded directions.  Every
cut must keep K, graded on the body's exact `support_rows`; an "inside"
reply must lie within the chain's band of 6 eps R, graded by a lower
bound on dist(y, K) over 256 directions (max over unit c of
<c, y> - h_K(c) is dist(y, K)); and the OPT per answer must grow at most
like n^1.3 over n in {2, 4, 8, 16}.
"""

import numpy as np
import pytest

from orc.bodies import ExactOptimization
from orc.core import OPT, RandomStream
from orc.experiments import fit_scaling, make_body
from orc.geometry import unit
from orc.reductions import sep_from_opt

SCALES = (0.95, 1.02, 1.1, 1.5)
SEEDS = range(4)
DIMS = {"ball": (2, 4, 8, 16), "box": (2, 4, 8, 16), "simplex": (2, 4, 8, 16),
        "ellipsoid": (2, 4, 8, 16), "random_hpolytope": (2, 4, 8)}


def _sweep(kind, eps):
    """Every answer's (n, OPT spent); asserts each answer's grade."""
    spent = []
    for n in DIMS[kind]:
        body = make_body({"kind": kind}, n, RandomStream(n).child("body"))
        g = body.geometry
        C = np.random.default_rng(0).normal(size=(256, n))
        C /= np.linalg.norm(C, axis=1)[:, None]
        for seed in SEEDS:
            rng = RandomStream(seed).child(kind, n)
            sep = sep_from_opt(ExactOptimization(body), g, rng.child("chain"), eps=eps)
            for scale in SCALES:
                u = unit(rng.child("dir", str(scale)).generator().normal(size=n))
                y = g.center + scale * body.radial_scale(u) * u
                before = sep.ledgers.opt.count(OPT)
                h = sep(y, eps).halfspace
                spent.append((n, sep.ledgers.opt.count(OPT) - before))
                where = (kind, n, seed, scale)
                if h is not None:
                    support = body.support_rows(h.normal[None, :])[0][0]
                    assert support <= float(h.normal @ h.anchor) + 1e-9, where
                else:
                    dist_below = float(np.max(C @ y - body.support_rows(C)[0]))
                    assert dist_below <= 6.0 * eps * g.R, where
    return spent


@pytest.mark.parametrize("eps", [0.02, 1e-3])
@pytest.mark.parametrize("kind", sorted(DIMS))
def test_sep_from_opt_is_sound_and_asks_near_linear_opt(kind, eps):
    spent = _sweep(kind, eps)
    if len(DIMS[kind]) >= 4:
        # fit_scaling's log factor is 1 at any eps: plain OPT per answer
        rows = [{"n": n, "eps": eps, "opt": count} for n, count in spent]
        slope, _ = fit_scaling(rows, "n", "opt")
        assert slope <= 1.3, slope
