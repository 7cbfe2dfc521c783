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
kind through a `.kind` attribute so they can be ledger-wrapped
generically.  A `QueryLedger` counts queries by kind only; the delta
of a query is not recorded.

MEM, VAL, OPT and EVAL have a stack form that answers a (k, n) stack
of queries in one call, one query per row: MEM's `rows(P, delta)` and
VAL's `rows(C, gammas, delta)` return bool arrays (True for INSIDE and
for SOME_ABOVE), OPT's `rows(C, delta)` a stack of maximizers and
EVAL's `rows(P, delta)` an array of values.  An oracle may offer it as
a `rows` attribute.  Two functions translate between the forms, one in
each direction: `rows_of` is the stack form of any oracle, its `rows`
or, for an oracle without one, one query per row, in row order; and
`single_of` is the oracle of a stack form, which checks the query once
and asks `rows` on a stack of one.  A view that is written as a stack
form gets its single query from `single_of`, not by hand.  The ledger
wrapper of those four kinds has a stack form and counts each of its
calls as one query per row.
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .geometry import as_vector, as_vector_of

MEM = "MEM"
SEP = "SEP"
OPT = "OPT"
VIOL = "VIOL"
VAL = "VAL"
EVAL = "EVAL"
GRAD = "GRAD"

ORACLE_KINDS = (MEM, SEP, OPT, VIOL, VAL, EVAL, GRAD)
#: the kinds with a stack form (`rows_of`)
STACK_KINDS = (MEM, VAL, OPT, EVAL)


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


class EmptyInteriorPropagated(RuntimeError):
    """An inner optimization oracle reported an empty interior."""


def rows_of(oracle, kind: str):
    """The stack form of a MEM, VAL, OPT or EVAL oracle: its `rows` when
    it has one, otherwise a loop that asks one query per row, in row
    order, and answers in the stack format above.  OPT's loop raises
    `EmptyInteriorPropagated` on an empty answer.  Look it up once per
    construction, not once per query."""
    if kind not in STACK_KINDS:
        raise ValueError(f"kind {kind!r} has no stack form; expected MEM, VAL, OPT or EVAL")
    rows = getattr(oracle, "rows", None)
    if rows is not None:
        return rows
    if kind == MEM:
        return lambda P, delta: np.array([oracle(p, delta).inside for p in P], dtype=bool)
    if kind == VAL:
        return lambda C, gammas, delta: np.array(
            [oracle(c, gamma, delta) is ValidityAnswer.SOME_ABOVE
             for c, gamma in zip(C, gammas)], dtype=bool)
    if kind == EVAL:
        return lambda P, delta: np.array([float(oracle(p, delta)) for p in P])

    def opt_rows(C, delta):
        Y = np.empty(C.shape)
        for i, c in enumerate(C):
            answer = oracle(c, delta)
            if answer.empty_interior:
                raise EmptyInteriorPropagated("optimization oracle reported an empty interior")
            Y[i] = answer.maximizer
        return Y

    return opt_rows


def single_of(kind: str, rows, n: int):
    """The MEM, VAL, OPT or EVAL oracle of the stack form `rows` over
    dimension n, the inverse of `rows_of`: a query is checked once, with
    `as_vector_of`, asked as a stack of one, and answered in the kind's
    format (`MembershipAnswer`, `ValidityAnswer`, `OptimizationAnswer`,
    float).  The oracle carries `kind` and `rows`."""
    if kind not in STACK_KINDS:
        raise ValueError(f"kind {kind!r} has no stack form; expected MEM, VAL, OPT or EVAL")
    if kind == MEM:
        def single(y, delta):
            return INSIDE_DILATED if rows(as_vector_of(y, n)[None, :], delta)[0] else OUTSIDE_ERODED
    elif kind == VAL:
        def single(c, gamma, delta):
            some_above = rows(as_vector_of(c, n)[None, :], np.array([float(gamma)]), delta)[0]
            return ValidityAnswer.SOME_ABOVE if some_above else ValidityAnswer.ALL_BELOW
    elif kind == OPT:
        def single(c, delta):
            return OptimizationAnswer(rows(as_vector_of(c, n)[None, :], delta)[0])
    else:
        def single(y, delta):
            return float(rows(as_vector_of(y, n)[None, :], delta)[0])
    single.kind = kind
    single.rows = rows
    return single


class _LedgeredOracle:
    """Transparent counting wrapper; answers are untouched.  For MEM, VAL,
    OPT and EVAL it has a stack form, `rows`, over the wrapped oracle's
    (`rows_of`), which records one query per row in one record."""

    def __init__(self, oracle, ledger: QueryLedger, kind: str):
        self._oracle = oracle
        self.ledger = ledger
        self.kind = kind
        if kind in STACK_KINDS:
            inner = rows_of(oracle, kind)

            def rows(C, *args):
                ledger.record(kind, len(C))
                return inner(C, *args)

            self.rows = rows

    def __call__(self, *args):
        self.ledger.record(self.kind)
        return self._oracle(*args)


def wrap_with_ledger(oracle, ledger: QueryLedger, kind: str | None = None):
    """Wrap `oracle` so every query increments `ledger` exactly once."""
    if kind is None:
        kind = getattr(oracle, "kind", None)
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}; pass kind= explicitly")
    return _LedgeredOracle(oracle, ledger, kind)
