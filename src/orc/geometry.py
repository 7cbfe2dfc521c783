"""Basic geometric vocabulary: vectors, boxes, halfspaces.

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
`as_unit_vector` round exactly as np.linalg.norm does.

Boundary comparisons are non-strict everywhere (all the bodies we work
with are closed), and all tolerances are absolute: bodies are assumed
normalized inside the unit ball by the time tolerances matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def as_unit_vector(coords) -> np.ndarray:
    v, square = _checked(coords)
    nrm = math.sqrt(square)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"not a unit vector: ||v|| = {nrm!r}")
    return v


def normalized(v: np.ndarray) -> np.ndarray:
    """v / ||v|| for a float64 1-d array taken as given: bitwise `unit(v)`
    without the entry check.  Errors on the zero vector."""
    nrm = math.sqrt(v @ v)
    if nrm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / nrm


def unit(v) -> np.ndarray:
    """Normalize to a unit vector; errors on (near-)zero input."""
    return normalized(as_vector(v))


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True)
class HalfSpace:
    """The set {y : <normal, y - anchor> <= slack}, with unit normal."""

    normal: np.ndarray
    anchor: np.ndarray
    slack: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "normal", as_unit_vector(self.normal))
        object.__setattr__(self, "anchor", as_vector(self.anchor))
        _check_same_dim(self.normal, self.anchor)
        # fails for NaN, infinite and negative slacks alike
        if not 0.0 <= self.slack < math.inf:
            raise ValueError(f"slack must be finite and >= 0, got {self.slack!r}")


@dataclass(frozen=True)
class Box:
    """Axis-aligned l-infinity ball: center +/- radius in every coordinate."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius!r}")

    @property
    def dim(self) -> int:
        return self.center.size


def linf_ball_contains(box: Box, p) -> bool:
    p = as_vector(p)
    _check_same_dim(box.center, p)
    return bool(np.abs(p - box.center).max() <= box.radius)


def halfspace_contains(h: HalfSpace, p) -> bool:
    p = as_vector(p)
    _check_same_dim(h.normal, p)
    return bool(np.dot(h.normal, p - h.anchor) <= h.slack)


def coordinate_segment_endpoints(box: Box, z, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of the axis-i chord of `box` through the interior point z.

    Both returned points equal z except that coordinate i is clamped to
    the box faces, so the segment is the full intersection of the box
    with the line {z + s*e_i}.  Coordinates are 1-based index-agnostic:
    i is a 0-based numpy index here.
    """
    z = as_vector(z)
    _check_same_dim(box.center, z)
    if not 0 <= i < box.dim:
        raise ValueError(f"coordinate index {i} out of range for dim {box.dim}")
    if not linf_ball_contains(box, z):
        raise ValueError("z lies outside the box")
    lo = z.copy()
    hi = z.copy()
    lo[i] = box.center[i] - box.radius
    hi[i] = box.center[i] + box.radius
    return lo, hi
