"""Every entry point checks the vectors it is given, once.

Below the entries nothing checks again, so a NaN entry or a stack
passed where a vector belongs must be refused at the entry itself.
"""

import numpy as np
import pytest

from orc.bodies import (Ball, ExactMembership, ExactOptimization,
                        ExactSeparation, ExactValidity, ExactViolation,
                        exact_membership, exact_support)
from orc.core import RandomStream
from orc.ellipsoid import OptimizerConfig, opt_from_viol, optimize_linear
from orc.separation import SepFromMem

UNIT_BALL = Ball(np.zeros(2), 1.0)

ENTRIES = {
    "ExactSeparation": lambda v: ExactSeparation(UNIT_BALL)(v, 0.01),
    "ExactOptimization": lambda v: ExactOptimization(UNIT_BALL)(v, 0.01),
    "ExactViolation": lambda v: ExactViolation(UNIT_BALL)(v, 0.5, 0.01),
    "ExactValidity": lambda v: ExactValidity(UNIT_BALL)(v, 0.5, 0.01),
    "exact_membership": lambda v: exact_membership(UNIT_BALL, v, 0.01),
    "exact_support": lambda v: exact_support(UNIT_BALL, v),
    "SepFromMem": lambda v: SepFromMem(ExactMembership(UNIT_BALL), UNIT_BALL.geometry,
                                       RandomStream(0), eps=1e-6, rho=0.1)(v, 0.01),
    "optimize_linear": lambda v: optimize_linear(
        OptimizerConfig(eps=0.1), ExactSeparation(UNIT_BALL), UNIT_BALL.geometry, v),
    "opt_from_viol": lambda v: opt_from_viol(ExactViolation(UNIT_BALL), 0.01)(v, 0.01),
}

# bad input -> the message `as_vector` refuses it with
BAD = {
    "nan": (np.array([0.5, np.nan]), "must be finite"),
    "2-d": (np.array([[0.5, 0.1], [0.2, 0.3]]), "expected a 1-d vector"),
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_rejects_bad_vector(entry, bad):
    vector, message = BAD[bad]
    with pytest.raises(ValueError, match=message):
        ENTRIES[entry](vector)
