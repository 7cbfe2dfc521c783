"""`opt_from_val` over exact VAL across bodies, dimensions and precisions.

The chain runs on the polar body of (K - x0)/R (see its docstring).
Bodies: the ball, the box, the simplex and a random ellipsoid at
n = 2/4/8, and `random_hpolytope` at n = 2/4, at eps 0.02 and 1e-3, ten
seeded unit objectives per cell.  Each answer is graded two-sided
against the body's closed-form `support`, within 3 eps (1 + kappa), the
tolerance `orc run` grades this chain with: at least 9 of 10 per cell.
The VAL per answer must grow at most like n^1.3 over n in {2, 4, 8} on
the box and the simplex, and an answer asked at a finer delta than eps
must be that much closer.
"""

import numpy as np
import pytest

from orc.bodies import ExactValidity
from orc.core import VAL, RandomStream
from orc.experiments import make_body
from orc.geometry import unit
from orc.reductions import opt_from_val

SEEDS = range(10)
DIMS = {"ball": (2, 4, 8), "box": (2, 4, 8), "simplex": (2, 4, 8),
        "ellipsoid": (2, 4, 8), "random_hpolytope": (2, 4)}


def _gaps(body, eps, delta):
    """(gap / the chain's tolerance at delta, VAL spent) per seed."""
    out = []
    for seed in SEEDS:
        rng = RandomStream(seed).child(body.dim)
        c = unit(rng.child("c").generator().normal(size=body.dim))
        opt = opt_from_val(ExactValidity(body), body.geometry, rng.child("chain"), eps=eps)
        gap = body.support(c)[0] - float(c @ opt(c, delta).maximizer)
        out.append((gap / (3.0 * delta * (1.0 + body.geometry.kappa)),
                    opt.ledgers.val.count(VAL)))
    return out


@pytest.mark.parametrize("eps", [0.02, 1e-3])
@pytest.mark.parametrize("kind", sorted(DIMS))
def test_opt_from_val_is_sound_and_asks_near_linear_val(kind, eps):
    spent = []
    for n in DIMS[kind]:
        body = make_body({"kind": kind}, n, RandomStream(n).child("body"))
        graded = _gaps(body, eps, eps)
        sound = sum(abs(ratio) <= 1.0 for ratio, _ in graded)
        assert sound >= 9, (kind, n, eps, graded)
        spent.append(np.mean([val for _, val in graded]))
    if kind in ("box", "simplex"):
        slope = np.polyfit(np.log(DIMS[kind]), np.log(spent), 1)[0]
        assert slope <= 1.3, (slope, spent)


@pytest.mark.parametrize("kind", ["box", "simplex"])
@pytest.mark.parametrize("fraction", [0.1, 0.01])
def test_opt_from_val_answers_at_a_finer_delta(kind, fraction):
    # the chain answers at d = min(eps, delta): asked at eps/10 and
    # eps/100, each gap is within that delta's tolerance, not eps's
    eps = 0.02
    body = make_body({"kind": kind}, 3, RandomStream(3).child("body"))
    for ratio, _ in _gaps(body, eps, fraction * eps):
        assert abs(ratio) <= 1.0
