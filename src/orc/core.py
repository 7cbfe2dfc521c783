"""Oracle contracts, query accounting, and seeded randomness.

The seven oracle kinds (MEM, SEP, OPT, VIOL, VAL, EVAL, GRAD) are plain
callables whose *last* positional argument is the precision delta:

    mem(y, delta)            -> MembershipAnswer
    sep(y, delta)            -> SeparationAnswer
    opt(c, delta)            -> OptimizationAnswer
    viol(c, gamma, delta)    -> ViolationAnswer
    val(c, gamma, delta)     -> ValidityAnswer
    eval(y, delta)           -> float (extended: may be +inf)
    grad(y, delta)           -> GradAnswer

A single delta plays the role of both geometric error and failure
probability, following the GLS convention.  Oracles advertise their
kind through a `.kind` attribute so they can be ledger-wrapped and
amplified generically.  A `QueryLedger` counts queries by kind only;
the delta of a query is not recorded.
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_vector

MEM = "MEM"
SEP = "SEP"
OPT = "OPT"
VIOL = "VIOL"
VAL = "VAL"
EVAL = "EVAL"
GRAD = "GRAD"

ORACLE_KINDS = (MEM, SEP, OPT, VIOL, VAL, EVAL, GRAD)


def check_precision(delta: float) -> float:
    """Validate the shared error/failure parameter: 0 < delta < 1/2."""
    if not (0.0 < delta < 0.5):
        raise ValueError(f"precision delta must lie in (0, 0.5), got {delta!r}")
    return float(delta)


@dataclass(frozen=True)
class ProblemGeometry:
    """Sandwiching-ball data: B(center, r) within K within B(center, R)."""

    n: int
    r: float
    R: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if not (0.0 < self.r <= self.R and math.isfinite(self.R)):
            raise ValueError(f"need 0 < r <= R, got r={self.r!r} R={self.R!r}")
        c = np.zeros(self.n) if self.center is None else as_vector(self.center)
        if c.size != self.n:
            raise ValueError("center dimension mismatch")
        object.__setattr__(self, "center", c)

    @property
    def kappa(self) -> float:
        return self.R / self.r

    def rescaled(self) -> "ProblemGeometry":
        """Geometry after recentering to the origin and dividing by R."""
        return ProblemGeometry(self.n, self.r / self.R, 1.0)


class MembershipAnswer(enum.Enum):
    INSIDE_DILATED = "inside_dilated"
    OUTSIDE_ERODED = "outside_eroded"

    @property
    def inside(self) -> bool:
        return self is MembershipAnswer.INSIDE_DILATED


INSIDE_DILATED = MembershipAnswer.INSIDE_DILATED
OUTSIDE_ERODED = MembershipAnswer.OUTSIDE_ERODED


@dataclass(frozen=True)
class SeparationAnswer:
    """Either an inside-assertion or a separating halfspace."""

    halfspace: "HalfSpace | None" = None

    @property
    def inside(self) -> bool:
        return self.halfspace is None


@dataclass(frozen=True)
class OptimizationAnswer:
    """Maximizer(point) or the assertion that B(K, -delta) is empty."""

    maximizer: np.ndarray | None = None

    @property
    def empty_interior(self) -> bool:
        return self.maximizer is None


@dataclass(frozen=True)
class ViolationAnswer:
    """AllBelow assertion, or a witness point beating the threshold."""

    witness: np.ndarray | None = None

    @property
    def all_below(self) -> bool:
        return self.witness is None


class ValidityAnswer(enum.Enum):
    ALL_BELOW = "all_below"
    SOME_ABOVE = "some_above"


@dataclass(frozen=True)
class GradAnswer:
    value: float
    subgrad: np.ndarray


class QueryLedger:
    """Per-oracle-kind call counters; counters are monotone nondecreasing."""

    def __init__(self):
        self._counts: dict[str, int] = {}

    def record(self, kind: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("ledger counts are monotone")
        self._counts[kind] = self._counts.get(kind, 0) + count

    def count(self, kind: str) -> int:
        return self._counts.get(kind, 0)

    def merge(self, other: "QueryLedger") -> None:
        """Fold another ledger's counts into this one."""
        for kind, count in other.totals().items():
            self.record(kind, count)

    def totals(self) -> dict[str, int]:
        return dict(self._counts)


@dataclass(frozen=True)
class RandomStream:
    """Deterministic hierarchical randomness: (seed, path) -> generator.

    Identical (seed, path) pairs always yield identical draw sequences;
    distinct paths give independent-in-practice streams, so nested
    algorithms can hand substreams to their parts without coordinating
    draw order.
    """

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *labels: int | str) -> "RandomStream":
        keys = tuple(zlib.crc32(x.encode()) if isinstance(x, str) else int(x)
                     for x in labels)
        return RandomStream(self.seed, self.path + keys)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.path))


class _LedgeredOracle:
    """Transparent counting wrapper; answers are untouched."""

    def __init__(self, oracle, ledger: QueryLedger, kind: str):
        self._oracle = oracle
        self.ledger = ledger
        self.kind = kind

    def __call__(self, *args):
        self.ledger.record(self.kind)
        return self._oracle(*args)

    @property
    def alpha_bisect_rows(self):
        """The wrapped oracle's stack bisection, recording sum(iters)
        queries in one record.  A property, so getattr-based feature
        detection sees AttributeError when the wrapped oracle has none."""
        inner = getattr(self._oracle, "alpha_bisect_rows", None)
        if inner is None:
            raise AttributeError("wrapped oracle has no alpha_bisect_rows fast path")

        def fast(D, x, hi, iters, delta):
            self.ledger.record(self.kind, int(np.sum(iters)))
            return inner(D, x, hi, iters, delta)

        return fast

    @property
    def rows(self):
        """The wrapped oracle's stack form, recording one query per row
        in one record; an AttributeError when it has none."""
        inner = getattr(self._oracle, "rows", None)
        if inner is None:
            raise AttributeError("wrapped oracle has no rows stack form")

        def stacked(C, *args):
            self.ledger.record(self.kind, len(C))
            return inner(C, *args)

        return stacked


def wrap_with_ledger(oracle, ledger: QueryLedger, kind: str | None = None):
    """Wrap `oracle` so every query increments `ledger` exactly once."""
    if kind is None:
        kind = getattr(oracle, "kind", None)
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}; pass kind= explicitly")
    return _LedgeredOracle(oracle, ledger, kind)


def amplify(oracle, repetitions: int, voter: str = "majority"):
    """Boost a randomized oracle's success probability by repetition.

    voter="majority" works for assertion-style answers (MEM, VAL);
    voter="best" keeps the best-objective witness (OPT, VIOL).  The
    underlying oracle must refresh its own randomness per call (all
    randomized oracles here derive draws from an internal query index).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if voter not in ("majority", "best"):
        raise ValueError(f"unknown voter {voter!r}")
    kind = getattr(oracle, "kind", None)
    if repetitions == 1:
        return oracle

    if voter == "majority":
        if kind not in (MEM, VAL, None):
            raise ValueError(f"majority voting is incompatible with kind {kind!r}")
        if repetitions % 2 == 0:
            raise ValueError("majority voting needs an odd repetition count")

        def voted(*args):
            answers = [oracle(*args) for _ in range(repetitions)]
            counts: dict[object, int] = {}
            for a in answers:
                counts[a] = counts.get(a, 0) + 1
            return max(counts.items(), key=lambda kv: kv[1])[0]

    else:
        if kind not in (OPT, VIOL, None):
            raise ValueError(f"best voting is incompatible with kind {kind!r}")

        def voted(*args):
            c = as_vector(args[0])
            best = None
            best_val = -math.inf
            fallback = None
            for _ in range(repetitions):
                a = oracle(*args)
                point = getattr(a, "maximizer", None)
                if point is None:
                    point = getattr(a, "witness", None)
                if point is None:
                    fallback = a
                    continue
                v = float(np.dot(c, point))
                if v > best_val:
                    best, best_val = a, v
            return best if best is not None else fallback

    voted.kind = kind
    return voted
