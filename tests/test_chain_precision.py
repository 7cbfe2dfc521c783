"""The inner precision of the composed chains, at its default.

`opt_from_mem` and `opt_from_val` ask their inner SEP-from-MEM oracle at
`reductions.inner_sep_eps(eps)`, unless the caller of the latter passes
`sep_eps`; `sep_from_opt` asks its OPT at that precision, or at its
`sep_eps`.  These tests run the chains at that default on the inputs
`orc run` draws for them (the body, objective and chain streams of each
trial's seed path) and grade each answer against the body's closed-form
support function, with `experiments._grade_opt`'s tolerance.
"""

import numpy as np
import pytest

from orc import reductions, separation
from orc.bodies import ExactMembership, ExactOptimization, ExactValidity
from orc.core import OPT, RandomStream
from orc.experiments import make_body
from orc.geometry import unit
from orc.reductions import inner_sep_eps, opt_from_mem, opt_from_val, sep_from_opt


def _trial_inputs(kind, n, seed):
    """The body, objective and seed path of `orc run`'s trial 0."""
    rng = RandomStream(seed).child(n, 0)
    body = make_body({"kind": kind}, n, rng.child("body"))
    return body, unit(rng.child("obj").generator().normal(size=n)), rng


def _sound(body, c, maximizer, tol_eps):
    tol = tol_eps * (1.0 + body.geometry.kappa)
    return abs(body.support(c)[0] - float(c @ maximizer)) <= tol


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["box", "simplex"])
def test_opt_from_val_at_its_default_precision_is_sound_on_99_of_100_seeds(kind, n, eps):
    sound = 0
    for seed in range(100):
        body, c, rng = _trial_inputs(kind, n, seed)
        opt = opt_from_val(ExactValidity(body), body.geometry, rng.child("chain"), eps=eps)
        answer = opt(c, eps)
        # the chain's accuracy is three times its eps, as `orc run` grades it
        sound += _sound(body, c, answer.maximizer, 3.0 * eps)
    assert sound >= 99, f"{sound} of 100 sound"


def test_opt_from_mem_at_its_default_precision_is_sound_on_the_box_at_n_4():
    # at sep_eps = eps * 1e-2, 6 of these 10 were sound
    eps, sound = 1e-3, 0
    for seed in range(1, 11):
        body, c, rng = _trial_inputs("box", 4, seed)
        opt = opt_from_mem(ExactMembership(body), body.geometry, rng.child("sep"), eps=eps)
        sound += _sound(body, c, opt(c, eps).maximizer, eps)
    assert sound >= 9, f"{sound} of 10 sound"


def test_default_precision_is_inner_sep_eps():
    body, c, rng = _trial_inputs("simplex", 3, 4)
    answers = [opt_from_val(ExactValidity(body), body.geometry, rng.child("chain"),
                            eps=0.01, **kw)(c, 0.01).maximizer
               for kw in ({}, {"sep_eps": inner_sep_eps(0.01)})]
    np.testing.assert_array_equal(*answers)
    assert inner_sep_eps(0.01) == 0.01 * 1e-4


@pytest.mark.parametrize("chain, base", [(opt_from_mem, ExactMembership),
                                         (opt_from_val, ExactValidity)],
                         ids=["opt_from_mem", "opt_from_val"])
def test_each_chain_builds_its_sep_from_mem_at_inner_sep_eps_and_rho(monkeypatch, chain, base):
    built = []

    def recording_sep_from_mem(*args, **kwargs):
        built.append(kwargs)
        return separation.SepFromMem(*args, **kwargs)

    monkeypatch.setattr(reductions, "SepFromMem", recording_sep_from_mem)
    body, _, rng = _trial_inputs("simplex", 3, 4)
    chain(base(body), body.geometry, rng.child("chain"), eps=0.01)
    assert built == [{"rho": separation.RHO, "eps": inner_sep_eps(0.01)}]


@pytest.mark.parametrize("sep_eps", [None, 1e-5])
def test_sep_from_opt_asks_its_opt_at_sep_eps(sep_eps):
    # SEP of the polar body asks OPT of (K - x0)/R at sep_eps, by default
    # inner_sep_eps(eps): R sep_eps on K
    body, _, rng = _trial_inputs("simplex", 3, 4)
    asked = []
    base = ExactOptimization(body)

    def opt(c, delta):
        asked.append(delta)
        return base(c, delta)

    opt.kind = OPT
    sep = sep_from_opt(opt, body.geometry, rng.child("chain"), eps=0.01, sep_eps=sep_eps)
    u = unit(rng.child("dir").generator().normal(size=3))
    sep(body.geometry.center + 1.5 * body.radial_scale(u) * u, 0.01)
    expected = body.geometry.R * (inner_sep_eps(0.01) if sep_eps is None else sep_eps)
    assert asked and set(asked) == {expected}
