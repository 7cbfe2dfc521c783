"""Reference convex bodies and functions with exact closed-form oracles.

These serve two roles: ground truth for the randomized reductions, and
independent brute-force oracles for the acceptance suite.  Every body
carries a certified sandwich B(x0, r) <= K <= B(x0, R), verified at
construction.

Constructors and the exact oracles (`exact_membership`, `exact_support`,
the `Exact*` classes, `exact_eval`, `exact_grad`) check their vectors
with `as_vector`; `exact_membership`, `exact_support` and the `Exact*`
set oracles also refuse a query whose dimension is not the body's
(`as_vector_of`).  The
methods of bodies and functions (`contains`, `contains_rows`,
`separate`, `support`, `radial_scale`, `value`, `grad`) take float64
1-d arrays, or (k, n) stacks, and trust them.

Each body writes its closed containment test in two forms, and nowhere
else.  `separate` is exact separation in one pass: it decides
containment and builds the separating normal from the quantities that
decision computed (the ball's y - center, the box's excess
q - clip(q), the ellipsoid's M q, the polytope's A y, the simplex's
projection), so `ExactSeparation` runs one containment test per query,
not a test and then a second pass for the normal.  `contains_rows`
tests every row of a (k, n) stack in one pass; it is the test the
α-bisection runs (as `ExactMembership.rows`, MEM's stack form).
`contains(y)` is not a third form: `BodySpec` derives it as
`separate(y) is None`, so exact MEM and exact SEP agree at every point
by construction.  A single MEM query outside the body therefore also
builds the normal; the α-bisection, where MEM queries are many, asks
`contains_rows`.  The ball and the ellipsoid sum their rows with
`einsum`, which rounds differently from `separate`'s dot, so a row
within an ulp of the boundary may get the other answer than `contains`.

`separate` runs once per oracle query, so it calls numpy's ufuncs and
their reductions (`np.add.reduce`, `np.maximum.reduce`,
`np.logical_and.reduce`) and `ndarray.sort` directly, not the Python
wrappers around them (`ndarray.min`, `sum`, `all`, `np.clip`,
`np.sort`); each computes the same values.  It asks whether
an array has a nonzero entry with `np.count_nonzero`, which costs less
than a logical reduction over floats, and takes products with
`ndarray.dot`, not `@`.

Stack forms answer k queries in one call and trust their float64 (k, n)
stacks the same way: `BodySpec.support_rows`, and the `rows` methods of
`ExactOptimization` (a stack of maximizers) and `ExactValidity` (a bool
array, True where the answer is SOME_ABOVE).  A single OPT or VAL call
is its `rows` on a stack of one.  Exact OPT, VIOL and VAL all answer
through `_support_or_zero`, so the rule for a zero direction lives in
one place.  Each body writes its support once, as `support_rows`, and
`BodySpec.support(c)` is `support_rows` on a stack of one.  Row dots
use `np.vecdot`, row norms `sqrt(vecdot)` and the polytope's and the
ellipsoid's matrix products one gemv per row, the computations of
`c @ y`, `np.linalg.norm` and `M @ c`, so each row of a stack gets the
answer it gets alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (INSIDE_DILATED, MEM, OPT, OUTSIDE_ERODED, SEP, SEP_INSIDE,
                   VAL, VIOL, GradAnswer, MembershipAnswer, OptimizationAnswer,
                   ProblemGeometry, SeparationAnswer, ValidityAnswer,
                   ViolationAnswer, check_precision)
from .geometry import _SQRT_TINY, _halfspace, as_vector, as_vector_of, normalized

_FEAS_TOL = 1e-9

#: Simplex.separate takes y - proj(y) as min(y, theta) where the
#: projection's threshold theta is below this many times max(y): sqrt(eps),
#: where y - proj(y), rounded by up to eps max(y) per entry, keeps fewer
#: than half its bits and its direction tilts by up to eps max(y) / theta
_ROUNDING_THETA = math.sqrt(np.finfo(np.float64).eps)


class UnsupportedVariant(TypeError):
    pass


# ---------------------------------------------------------------------------
# bodies

class BodySpec:
    """Common surface: exact containment, separation, support, geometry."""

    geometry: ProblemGeometry

    @property
    def dim(self) -> int:
        return self.geometry.n

    def contains(self, y: np.ndarray) -> bool:
        """Closed containment, y in K: the decision `separate` makes."""
        return self.separate(y) is None

    def contains_rows(self, P: np.ndarray) -> np.ndarray:
        """Closed containment of every row of the (k, n) stack P, as a
        bool array."""
        raise UnsupportedVariant(type(self).__name__)

    def separate(self, y: np.ndarray) -> np.ndarray | None:
        """None when y is in K (closed), otherwise a unit c with
        sup_{x in K} <c, x> <= <c, y>."""
        raise UnsupportedVariant(type(self).__name__)

    def support(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact support value max_{x in K} <c, x> and a maximizer:
        `support_rows` on a stack of one."""
        values, args = self.support_rows(c[None, :])
        return float(values[0]), args[0]

    def support_rows(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact support value max_{x in K} <c, x> at every row c of
        the (k, n) stack C, k >= 1, and the (k, n) stack of maximizers."""
        raise UnsupportedVariant(type(self).__name__)

    def radial_scale(self, u: np.ndarray) -> float:
        """Largest t with geometry.center + t*u in K (u a unit vector)."""
        raise UnsupportedVariant(type(self).__name__)


@dataclass(frozen=True)
class Ball(BodySpec):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "geometry", ProblemGeometry(
            self.center.size, self.radius, self.radius, self.center))

    def contains_rows(self, P):
        Q = P - self.center
        return np.einsum("ij,ij->i", Q, Q) <= self.radius * self.radius

    def separate(self, y):
        q = y - self.center
        if q @ q <= self.radius * self.radius:
            return None
        try:
            return normalized(q)
        except ValueError:
            # y - center overflowed (the only way q can have an infinite
            # entry); its halves do not, and point the same way
            return normalized(0.5 * y - 0.5 * self.center)

    def support_rows(self, C):
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(C, C))
        if (norms >= _SQRT_TINY).all():
            units = C / norms[:, None]
        else:
            # c.c underflows on some row: `normalized` rescales such a
            # row first, and refuses a zero one
            units = np.array([normalized(c) for c in C])
        return np.vecdot(C, self.center) + self.radius * norms, self.center + self.radius * units

    def radial_scale(self, u):
        return self.radius


@dataclass(frozen=True)
class BoxBody(BodySpec):
    """l-infinity ball: center +/- radius per coordinate."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        n = self.center.size
        object.__setattr__(self, "geometry", ProblemGeometry(
            n, self.radius, self.radius * math.sqrt(n), self.center))

    def contains_rows(self, P):
        return np.maximum.reduce(np.abs(P - self.center), axis=1) <= self.radius

    def separate(self, y):
        # q - clip(q) for q = y - center: zero exactly where |q_i| <=
        # radius, since float subtraction of two distinct numbers is
        # never zero
        q = y - self.center
        excess = q - np.minimum(np.maximum(q, -self.radius), self.radius)
        if not np.count_nonzero(excess):
            return None
        try:
            return normalized(excess)
        except ValueError:
            # y - center overflowed; at half scale the excess is halved
            q = 0.5 * y - 0.5 * self.center
            half = 0.5 * self.radius
            return normalized(q - np.minimum(np.maximum(q, -half), half))

    def support_rows(self, C):
        args = self.center + self.radius * np.where(C >= 0.0, 1.0, -1.0)
        return np.vecdot(C, args), args

    def radial_scale(self, u):
        return self.radius / float(np.max(np.abs(u)))


@dataclass(frozen=True)
class Simplex(BodySpec):
    """{x >= 0, sum x <= scale} in the given dimension.

    The certified inner ball sits at the Chebyshev center t*(1,...,1)
    with t = scale/(n + sqrt(n)).
    """

    dim_: int
    scale: float = 1.0

    def __post_init__(self):
        if self.dim_ < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim_!r}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        n, s = self.dim_, self.scale
        t = s / (n + math.sqrt(n))
        x0 = np.full(n, t)
        verts = [np.zeros(n)] + [s * e for e in np.eye(n)]
        R = max(float(np.linalg.norm(v - x0)) for v in verts)
        object.__setattr__(self, "geometry", ProblemGeometry(n, t, R, x0))

    def contains_rows(self, P):
        return ((np.minimum.reduce(P, axis=1) >= 0.0)
                & (np.add.reduce(P, axis=1) <= self.scale))

    def separate(self, y):
        """The normal is y minus y's Euclidean projection onto K."""
        s = self.scale
        p = np.maximum(y, 0.0)
        # y - p is y's negative part: nonzero exactly where y_i < 0
        negative = y - p
        if np.add.reduce(p) <= s:
            if not np.count_nonzero(negative):
                return None
            # y projects to p
            return normalized(negative)
        if not np.count_nonzero(negative):
            # y >= 0 lies beyond the face sum x = s
            theta = _simplex_threshold(y, s)
            if theta >= _ROUNDING_THETA * np.maximum.reduce(y):
                return normalized(y - np.maximum(y - theta, 0.0))
            # y lies just past the face: each y_i - theta is rounded by
            # up to eps max(y) / 2, so y - proj(y), which is min(y, theta),
            # is mostly rounding noise.  min(y, theta) itself has no
            # cancellation, and a theta that rounded to <= 0 leaves the
            # face indicator, its limit as theta -> 0
            if theta > 0.0:
                return normalized(np.minimum(y, theta))
            return normalized((y > 0.0).astype(np.float64))
        return normalized(y - np.maximum(y - _simplex_threshold(y, s), 0.0))

    def support_rows(self, C):
        k = np.arange(C.shape[0])
        i = np.argmax(C, axis=1)
        top = C[k, i]
        pos = top > 0.0
        args = np.zeros(C.shape)
        args[k[pos], i[pos]] = self.scale
        return np.where(pos, self.scale * top, 0.0), args

    def radial_scale(self, u):
        x0 = self.geometry.center
        t = math.inf
        su = float(np.sum(u))
        if su > 0.0:
            t = (self.scale - float(np.sum(x0))) / su
        for i in range(self.dim):
            if u[i] < 0.0:
                t = min(t, -x0[i] / u[i])
        return t


class HPolytope(BodySpec):
    """The polytope {x : <a_i, x> <= b_i for every i}, unit-norm rows a_i.

    Requires an interior point; the inner radius is certified from the
    facet slacks there and the outer radius from full vertex
    enumeration, so the facet count must keep C(m, n) manageable.

    Enumeration (`_enumerate_vertices`) tests every n-subset S of the
    facets, with k = m - n.  When 0 < k < n it first screens each subset
    by the complementary-slack identity: the point where the rows in S
    are tight has slack s = b - A v, zero on S, and on the complement T
    s_T solves the k x k system N_T^T s_T = N^T b, N an orthonormal basis
    of the left null space of A.  Only a subset whose s_T is negative by
    more than _FEAS_TOL + 1e-3 * (max|b| + max|s_T|), well past the
    rounding of either route, is dropped, and near-singular N_T go
    through unscreened.  The survivors take the exact per-subset test,
    stacked, which runs the same LAPACK and BLAS routine on each matrix
    as one call would, so the vertices, R and every answer are bitwise
    those of the plain per-subset loop.  At m = n + 4, n = 16 and 32, the
    screen passes about one subset in eight.
    """

    MAX_SUBSETS = 1 << 20

    def __init__(self, A, b, interior_point):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise ValueError("A must be m x n with matching b")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero facet normal")
        self.A = A / norms[:, None]
        self.b = b / norms
        x0 = as_vector_of(interior_point, A.shape[1])
        # the facet slacks at the centre, which radial_scale reuses
        self._slack = slack = self.b - self.A @ x0
        r = float(np.min(slack))
        if r <= 0:
            raise ValueError("interior point is not strictly feasible")
        if math.comb(A.shape[0], A.shape[1]) > self.MAX_SUBSETS:
            raise ValueError("too many facets for vertex enumeration")
        self.vertices = _enumerate_vertices(self.A, self.b)
        if self.vertices.shape[0] == 0:
            raise ValueError("polytope appears empty or unbounded")
        R = float(np.max(np.linalg.norm(self.vertices - x0, axis=1)))
        self.geometry = ProblemGeometry(A.shape[1], r, R, x0)

    def contains_rows(self, P):
        return np.logical_and.reduce(P @ self.A.T <= self.b, axis=1)

    def separate(self, y):
        """The most violated facet's normal; valid in any dimension."""
        Ay = self.A @ y
        if np.logical_and.reduce(Ay <= self.b):
            return None
        return self.A[int(np.argmax(Ay - self.b))].copy()

    def support_rows(self, C):
        # one gemv per row, as a single `vertices @ c` computes it
        vals = (self.vertices @ C[:, :, None])[..., 0]
        i = np.argmax(vals, axis=1)
        return vals[np.arange(C.shape[0]), i], self.vertices[i]

    def radial_scale(self, u):
        den = self.A @ u
        pos = den > 0
        return float(np.min(self._slack[pos] / den[pos]))


@dataclass(frozen=True)
class Ellipsoid(BodySpec):
    """{x : (x - center)^T shape^-1 (x - center) <= 1}, shape PD.

    The containment tests compare |q^T M q| with 1, for q = x - center
    and M = shape^-1: the form is >= 0 up to rounding, but where its
    terms overflow (x far outside) it can sum to -inf, which the
    absolute value sends outside."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        n = self.center.size
        S = np.asarray(self.shape, dtype=np.float64)
        if S.shape != (n, n):
            raise ValueError(f"shape must be {n} x {n} for a centre of dimension {n}, "
                             f"got {S.shape}")
        S = 0.5 * (S + S.T)
        eigs = np.linalg.eigvalsh(S)
        if eigs[0] <= 0:
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "shape", S)
        object.__setattr__(self, "_inv", np.linalg.inv(S))
        object.__setattr__(self, "geometry", ProblemGeometry(
            n, math.sqrt(eigs[0]), math.sqrt(eigs[-1]), self.center))

    def contains_rows(self, P):
        Q = P - self.center
        return np.abs(np.einsum("ij,ij->i", Q @ self._inv.T, Q)) <= 1.0

    def separate(self, y):
        q = y - self.center
        Mq = self._inv.dot(q)
        if abs(q.dot(Mq)) <= 1.0:
            return None
        try:
            return normalized(Mq)
        except ValueError:
            # q or M q overflowed: M q points as M (q / max|q_i|) does,
            # and q's halves do not overflow
            q = 0.5 * y - 0.5 * self.center
            return normalized(self._inv @ (q / np.maximum.reduce(np.abs(q))))

    def support_rows(self, C):
        SC = (self.shape @ C[:, :, None])[..., 0]
        w = np.sqrt(np.vecdot(C, SC))
        # the centre is a maximizer where the width is 0
        flat = (w == 0.0)[:, None]
        args = np.where(flat, self.center, self.center + SC / np.where(flat, 1.0, w[:, None]))
        return np.vecdot(C, self.center) + w, args

    def radial_scale(self, u):
        return 1.0 / math.sqrt(float(u @ (self._inv @ u)))


# float64 values per stacked matrix chunk of the vertex enumeration
_CHUNK = 1 << 16
# the screen sends a subset whose |det N_T| is below _SCREEN_DET to the
# exact stage unscreened, and discards one only when its slack is below
# -(_FEAS_TOL + _SCREEN_MARGIN * (max|b| + max|s_T|))
_SCREEN_DET = 1e-8
_SCREEN_MARGIN = 1e-3


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The vertices of {A x <= b}: every point where n facets with
    |det A_S| >= 1e-12 are tight and A v <= b + _FEAS_TOL holds, rounded
    to 12 decimals and deduplicated.

    Two stages.  When 0 < k = m - n < n, a complementary-slack screen
    (`_screened_subsets`) first discards the facet subsets whose point is
    clearly infeasible, from one k x k system per subset, and only the
    rest reach the exact stage (`_tight_vertices`).  Otherwise every
    subset reaches the exact stage.  The exact stage is the per-subset
    test, stacked: the same det, solve and A v per matrix, each a gufunc
    or matmul loop that runs the single call's LAPACK or BLAS routine on
    every matrix of the stack.  The screen only drops subsets the exact
    stage would reject, and `np.unique` sorts, so the vertices are
    bitwise those of the per-subset loop."""
    m, n = A.shape
    k = m - n
    if 0 < k < n:
        subsets = _screened_subsets(A, b)
    else:
        subsets = _subsets(m, n, max(1, _CHUNK // (n * n)))
    found = [v for S in subsets for v in _tight_vertices(A, b, S)]
    if not found:
        return np.zeros((0, n))
    return np.unique(np.round(np.concatenate(found), 12), axis=0)


def _subsets(m: int, r: int, rows: int):
    """The r-subsets of range(m), r >= 1, in lexicographic order, as
    (K, r) index stacks of at most `rows` rows."""
    combos = itertools.combinations(range(m), r)
    while True:
        block = np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, rows)),
                            dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, r)


def _screened_subsets(A: np.ndarray, b: np.ndarray):
    """(K, n) stacks of the n-subsets S of A's rows that the exact stage
    must still test, for 0 < k = m - n < n.

    N, the last k columns of U in A = U diag(s) V^T, is an orthonormal
    basis of the left null space (N^T A = 0).  Let v be the point where
    the rows in S are tight, T the complement of S and s = b - A v its
    slack.  Then s_S = 0 and N^T s = N^T b, so s_T solves the k x k
    system N_T^T s_T = N^T b, with no n x n solve.  [Q N] is orthogonal
    for Q an orthonormal basis of A's range, and complementary minors of
    an orthogonal matrix are equal in size: |det Q_S| = |det N_T|.  So A_S
    (= Q_S times a fixed factor) is singular exactly when N_T is.

    The margin.  The singular values of N_T and Q_S are at most 1, so the
    smallest is at least sigma = |det N_T|: kappa(N_T) <= 1/sigma and
    kappa(A_S) <= kappa(A)/sigma.  Both the screen's slack and the exact
    stage's b - A v are then within about c * 2^-53 * scale / sigma of
    the exact slack, where scale = max|b| + max|s_T| bounds max|A v|.
    A subset is screened only when sigma >= 1e-8, which bounds that by
    c * 1.1e-8 * scale; on random polytopes at n = 8 to 32 (jitter 0.15
    and 50) the two computed slacks differed by at most 2 * 2^-53 *
    scale / sigma, so c <= 2.  A margin of 1e-3 * scale beyond _FEAS_TOL
    leaves a factor of about 1e5 over that and costs little: on one
    n = 32, m = 36 polytope 6972 of its 58905 subsets reach the exact
    stage, against 6927 with a margin of 1e-6.  Subsets with sigma < 1e-8, the singular ones among them, go to
    the exact stage unscreened."""
    m, n = A.shape
    k = m - n
    N = np.linalg.svd(A, full_matrices=True)[0][:, n:]
    rhs = N.T @ b
    b_max = float(np.max(np.abs(b)))
    for T in _subsets(m, k, _CHUNK // (k * k)):
        NtT = N[T].transpose(0, 2, 1)
        screened = np.abs(np.linalg.det(NtT)) >= _SCREEN_DET
        keep = ~screened
        if screened.any():
            NtT = NtT[screened]
            s = np.linalg.solve(NtT, np.broadcast_to(rhs[:, None], (NtT.shape[0], k, 1)))[..., 0]
            margin = _FEAS_TOL + _SCREEN_MARGIN * (b_max + np.max(np.abs(s), axis=1))
            keep[screened] = ~(np.min(s, axis=1) < -margin)
        T = T[keep]
        tight = np.ones((T.shape[0], m), dtype=bool)
        tight[np.arange(T.shape[0])[:, None], T] = False
        yield np.nonzero(tight)[1].reshape(-1, n)


def _tight_vertices(A: np.ndarray, b: np.ndarray, S: np.ndarray):
    """The feasible points of the facet subsets in the (K, n) stack S,
    as one (K', n) array per chunk: the per-subset test, stacked, with
    the same abs(det) < 1e-12 skip and A v <= b + _FEAS_TOL test."""
    n = A.shape[1]
    rows = max(1, _CHUNK // (n * n))
    for start in range(0, S.shape[0], rows):
        idx = S[start:start + rows]
        sub = A[idx]
        regular = ~(np.abs(np.linalg.det(sub)) < 1e-12)
        if not regular.any():
            continue
        idx, sub = idx[regular], sub[regular]
        # (n, 1) right-hand sides: solve's stacked form, one gesv each
        V = np.linalg.solve(sub, b[idx][..., None])
        # A @ (n, 1) runs the gemv of A @ v on every vertex of the stack
        feasible = np.all((A @ V)[..., 0] <= b + _FEAS_TOL, axis=1)
        yield V[feasible, :, 0]


@functools.cache
def _ranks(n: int) -> np.ndarray:
    """The read-only float64 vector 1, 2, ..., n."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def _simplex_threshold(y: np.ndarray, s: float) -> float:
    """The threshold theta of the Euclidean projection max(y - theta, 0)
    onto {x >= 0, sum x = s}, the projection onto the simplex of a y whose
    positive part sums past s (sorted-threshold algorithm: k is the last
    rank whose threshold condition holds)."""
    u_srt = y.copy()
    u_srt.sort()  # np.sort(y) without its wrapper
    u_srt = u_srt[::-1]
    css = np.add.accumulate(u_srt) - s
    # u - t > 0 exactly when u > t, for floats
    (held,) = (u_srt > css / _ranks(y.size)).nonzero()
    # The first condition, u_1 - (u_1 - s) = s > 0, holds in exact
    # arithmetic, but for y far outside (an entry near 1e16 or beyond)
    # rounding can fail every one; k = 1 is taken then.
    k = int(held[-1]) + 1 if held.size else 1
    return css[k - 1] / k


# ---------------------------------------------------------------------------
# exact oracles over bodies

def exact_membership(spec: BodySpec, y, delta: float) -> MembershipAnswer:
    """Answer by exact containment: always a valid MEM answer at any delta."""
    check_precision(delta)
    return INSIDE_DILATED if spec.contains(as_vector_of(y, spec.dim)) else OUTSIDE_ERODED


class ExactMembership:
    """Callable MEM oracle for a reference body, with a stack form."""

    kind = MEM

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, y, delta):
        return exact_membership(self.spec, y, delta)

    def rows(self, P, delta):
        """One query per row of the float64 (k, n) stack P, taken as
        given: a bool array, True where the answer is INSIDE."""
        return self.spec.contains_rows(P)

    def alpha_bisect(self, d, x, hi, iters, delta):
        """max{a : d + a*x in K} by `iters` rounds of bisection from the
        bracket [0, hi], a stack of one through `kernels.bisect_rows`.
        No library code calls it; perfbench's span table names it."""
        return kernels.bisect_alpha(self.spec.contains_rows, d, x, hi, iters)


def exact_support(spec: BodySpec, c) -> tuple[float, np.ndarray]:
    return spec.support(as_vector_of(c, spec.dim))


def brute_force_lp(spec: HPolytope, c) -> tuple[float, np.ndarray]:
    """Independent LP oracle: re-enumerates facet-subset intersections.

    Deliberately does not reuse the vertices cached at construction, nor
    the screened, stacked `_enumerate_vertices` that found them: it
    solves every n-subset on its own, one det and one solve at a time.
    This is the second route of the dual-route support check.
    """
    if not isinstance(spec, HPolytope):
        raise UnsupportedVariant("brute_force_lp needs an HPolytope")
    A, b = spec.A, spec.b
    m, n = A.shape
    if n > 4 or m > 32:
        raise ValueError("brute_force_lp is restricted to n <= 4, m <= 32")
    c = as_vector(c)
    best_val, best_vert = -math.inf, None
    for idx in itertools.combinations(range(m), n):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + _FEAS_TOL):
            val = float(c @ v)
            if val > best_val:
                best_val, best_vert = val, v
    if best_vert is None:
        raise ValueError("polytope is empty or unbounded")
    return best_val, best_vert


# ---------------------------------------------------------------------------
# functions

class FuncSpec:
    """Convex function with exact evaluation and a chosen subgradient."""

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(FuncSpec):
    a: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))

    def value(self, y):
        return float(self.a @ y) + self.b

    def grad(self, y):
        return self.a.copy()


@dataclass(frozen=True)
class Quadratic(FuncSpec):
    """x^T A x + b^T x + c with A positive semidefinite."""

    A: np.ndarray
    b: np.ndarray | None = None
    c: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        A = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(A)[0] < -1e-12:
            raise ValueError("quadratic form must be convex")
        object.__setattr__(self, "A", A)
        b = np.zeros(A.shape[0]) if self.b is None else as_vector(self.b)
        object.__setattr__(self, "b", b)

    def value(self, y):
        return float(y @ (self.A @ y) + self.b @ y) + self.c

    def grad(self, y):
        return 2.0 * (self.A @ y) + self.b


@dataclass(frozen=True)
class MaxOfLinear(FuncSpec):
    """max_i (<a_i, x> + b_i); subgradient ties break to the lowest index."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((as_vector(a), float(b)) for a, b in self.terms)
        if not terms:
            raise ValueError("need at least one term")
        object.__setattr__(self, "terms", terms)

    def value(self, y):
        return max(float(a @ y) + b for a, b in self.terms)

    def grad(self, y):
        vals = [float(a @ y) + b for a, b in self.terms]
        return self.terms[int(np.argmax(vals))][0].copy()


@dataclass(frozen=True)
class Indicator(FuncSpec):
    body: BodySpec

    def value(self, y):
        return 0.0 if self.body.contains(y) else math.inf

    def grad(self, y):
        if not self.body.contains(y):
            raise ValueError("indicator subgradient undefined outside the body")
        return np.zeros(self.body.dim)


def exact_eval(spec: FuncSpec, y) -> float:
    return spec.value(as_vector(y))


def exact_grad(spec: FuncSpec, y) -> GradAnswer:
    y = as_vector(y)
    return GradAnswer(spec.value(y), spec.grad(y))


# ---------------------------------------------------------------------------
# exact set oracles (analytic SEP/OPT/VIOL/VAL for the test ground truth)

class ExactSeparation:
    """Exact SEP: one `separate` pass per query."""

    kind = SEP

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, y, delta):
        spec = self.spec
        y = as_vector_of(y, spec.geometry.n)
        normal = spec.separate(y)
        if normal is None:
            return SEP_INSIDE
        # a unit normal from `separate` and the checked y
        return SeparationAnswer(_halfspace(normal, y, 0.0))


def _support_or_zero(spec: BodySpec, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`spec.support_rows(C)`, except at a zero row: <0, y> = 0
    everywhere, so its support value is 0 and the body's center is a
    maximizer.  The exact OPT, VIOL and VAL oracles all answer through
    it, so the rule for a zero direction lives here alone."""
    nonzero = np.logical_or.reduce(C, axis=1)
    if np.logical_and.reduce(nonzero):
        return spec.support_rows(C)
    values = np.zeros(C.shape[0])
    args = np.repeat(spec.geometry.center[None, :], C.shape[0], axis=0)
    if nonzero.any():
        values[nonzero], args[nonzero] = spec.support_rows(C[nonzero])
    return values, args


class ExactOptimization:
    kind = OPT

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, delta):
        return OptimizationAnswer(self.rows(as_vector_of(c, self.spec.dim)[None, :], delta)[0])

    def rows(self, C, delta):
        """One query per row of the float64 (k, n) stack C, taken as
        given: the (k, n) stack of maximizers (`_support_or_zero`)."""
        return _support_or_zero(self.spec, C)[1]


class ExactViolation:
    kind = VIOL

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, gamma, delta):
        values, args = _support_or_zero(self.spec, as_vector_of(c, self.spec.dim)[None, :])
        return ViolationAnswer(args[0]) if values[0] >= gamma else ViolationAnswer(None)


class ExactValidity:
    kind = VAL

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, gamma, delta):
        some_above = self.rows(as_vector_of(c, self.spec.dim)[None, :], gamma, delta)[0]
        return ValidityAnswer.SOME_ABOVE if some_above else ValidityAnswer.ALL_BELOW

    def rows(self, C, gammas, delta):
        """One query per row of the float64 (k, n) stack C against its
        own threshold gammas[i], taken as given: a bool array, True where
        the answer is SOME_ABOVE (`_support_or_zero`)."""
        return _support_or_zero(self.spec, C)[0] >= gammas


def random_hpolytope(n: int, rng, extra_facets: int = 3,
                     jitter: float = 0.15) -> HPolytope:
    """A random polytope containing the origin in its interior.

    Starts from the facet normals of a regular simplex (whose n+1 outward
    normals positively span R^n), perturbs them, and adds a few extra
    random facets.  The perturbed normals need not positively span R^n,
    so the polytope may be unbounded, and `HPolytope` does not check it:
    with the defaults and seeded draws, none of 100 to 200 per dimension
    was unbounded at n = 2, 3, 4 or 8, but 23 of 40 were at n = 16.
    All offsets are >= 0.6 so the unit directions keep a ball of radius
    0.6 around the origin inside the body.
    """
    gen = rng.generator() if hasattr(rng, "generator") else rng
    ones = np.ones((n + 1, 1))
    # orthonormal basis of the hyperplane { u : sum(u) = 0 } in R^{n+1}
    q, _ = np.linalg.qr(np.hstack([ones, np.eye(n + 1)[:, :n]]))
    basis = q[:, 1:n + 1]
    normals = (np.eye(n + 1) - 1.0 / (n + 1)) @ basis
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals + jitter * gen.standard_normal(normals.shape)
    if extra_facets > 0:
        extra = gen.standard_normal((extra_facets, n))
        normals = np.vstack([normals, extra])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = gen.uniform(0.6, 1.3, size=normals.shape[0])
    return HPolytope(normals, offsets, interior_point=np.zeros(n))


class FlipNoise:
    """Membership oracle that flips the wrapped answer with probability p."""

    kind = MEM

    def __init__(self, mem, p: float, rng):
        if not 0.0 <= p < 0.5:
            raise ValueError("flip probability must lie in [0, 0.5)")
        self.mem = mem
        self.p = p
        self._gen = rng.generator() if hasattr(rng, "generator") else rng

    def __call__(self, y, delta):
        answer = self.mem(y, delta)
        if self._gen.random() < self.p:
            return (MembershipAnswer.OUTSIDE_ERODED
                    if answer is MembershipAnswer.INSIDE_DILATED
                    else MembershipAnswer.INSIDE_DILATED)
        return answer
