"""Basic geometric vocabulary: vectors and halfspaces.

Vectors are plain 1-d float64 numpy arrays throughout the package.
A vector is checked once, by `as_vector`, where it enters the library:
in a constructor, an oracle's `__call__` or another public entry point.
Body methods and internal helpers take float64 1-d arrays as given and
do not check them again; `as_vector` returns such an array unchanged,
and `normalized` scales one the library made to unit length without a
check.

The finiteness check reads one reduction, v.v: a finite v.v proves
every entry finite, since an infinite or NaN entry makes it infinite
or NaN.  Only when it is not finite, which also happens when a vector
of finite entries overflows it (entries beyond about 1e154, where numpy
reports the overflow as a RuntimeWarning), does the entrywise test
decide.  A norm is sqrt(v.v), np.linalg.norm's own computation for a
1-d float64 array, so `normalized`, `unit` and the unit-norm test of
`as_unit_vector` round exactly as np.linalg.norm does (`normalized`
except where v.v underflows or overflows, where it rescales first).

A `HalfSpace` built by its public constructor checks its normal, anchor
and slack.  Library code that builds one from vectors it has already
checked uses the private constructor `_halfspace` instead, which stores
them as given.  Its precondition: the normal is a float64 1-d array of
unit length to 1e-12 (one that `normalized` or `unit` returned, or a
unit facet row), the anchor a finite float64 1-d array of the same
dimension, and the slack a finite float >= 0, so that the public
constructor would accept the same three values.  Its call sites are
`bodies.ExactSeparation.__call__`, the far branch and the estimate of
`separation.SepFromMem.__call__` and the answer of
`reductions.sep_from_opt` and of its SEP of the polar body.

Boundary comparisons are non-strict everywhere (all the bodies we work
with are closed), and all tolerances are absolute: bodies are assumed
normalized inside the unit ball by the time tolerances matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _checked(coords) -> tuple[np.ndarray, float]:
    """The finite 1-d float64 array of `coords` and its v.v."""
    v = np.asarray(coords, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    square = float(v @ v)
    if not math.isfinite(square) and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v, square


def as_vector(coords) -> np.ndarray:
    """Coerce to a finite 1-d float64 array of dimension >= 1."""
    return _checked(coords)[0]


def as_vector_of(coords, n: int) -> np.ndarray:
    """`as_vector` for a vector of dimension n; errors on any other."""
    v = as_vector(coords)
    if v.size != n:
        raise ValueError(f"expected a vector of dimension {n}, got {v.size}")
    return v


def as_unit_vector(coords) -> np.ndarray:
    v, square = _checked(coords)
    nrm = math.sqrt(square)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"not a unit vector: ||v|| = {nrm!r}")
    return v


def normalized(v: np.ndarray) -> np.ndarray:
    """v / ||v|| for a float64 1-d array taken as given: bitwise `unit(v)`
    without the entry check.  The result is a unit vector, or it errors:
    on the zero vector, and on a v with an infinite or NaN entry (one
    that overflowed where the library computed it).

    A nonzero v whose v.v underflows below the least normal float (every
    entry below about 1e-154) or overflows to infinity (some entry
    beyond about 1e154) is first divided by max|v_i|, so it still gets a
    unit vector in its direction; at any other v that branch is not
    taken and the result is v / sqrt(v.v)."""
    nrm = math.sqrt(v @ v)
    # outside [sqrt(tiny), inf) only when v.v underflows below tiny or
    # overflows, or an entry of v is not finite
    if not _SQRT_TINY <= nrm < math.inf:
        top = np.max(np.abs(v))
        if top == 0.0:
            raise ValueError("cannot normalize the zero vector")
        if not top < math.inf:
            raise ValueError("cannot normalize a vector with a non-finite entry")
        v = v / top
        nrm = math.sqrt(v @ v)
    return v / nrm


def unit(v) -> np.ndarray:
    """Normalize to a unit vector; errors on the zero vector."""
    return normalized(as_vector(v))


@dataclass(frozen=True)
class HalfSpace:
    """The set {y : <normal, y - anchor> <= slack}, with unit normal."""

    normal: np.ndarray
    anchor: np.ndarray
    slack: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "normal", as_unit_vector(self.normal))
        object.__setattr__(self, "anchor", as_vector(self.anchor))
        if self.normal.shape != self.anchor.shape:
            raise ValueError(f"dimension mismatch: {self.normal.shape} vs {self.anchor.shape}")
        # fails for NaN, infinite and negative slacks alike
        if not 0.0 <= self.slack < math.inf:
            raise ValueError(f"slack must be finite and >= 0, got {self.slack!r}")


def _halfspace(normal: np.ndarray, anchor: np.ndarray, slack: float = 0.0) -> HalfSpace:
    """The `HalfSpace` of the three values as given, without the public
    constructor's checks; see the module docstring for the precondition."""
    h = object.__new__(HalfSpace)
    h.__dict__.update(normal=normal, anchor=anchor, slack=slack)
    return h
