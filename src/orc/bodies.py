"""Reference convex bodies and functions with exact closed-form oracles.

These serve two roles: ground truth for the randomized reductions, and
independent brute-force oracles for the acceptance suite.  Every body
carries a certified sandwich B(x0, r) <= K <= B(x0, R), verified at
construction.

Constructors and the exact oracles (`exact_membership`, `exact_support`,
the `Exact*` classes, `exact_eval`, `exact_grad`) check their vectors
with `as_vector`.  The methods of bodies and functions (`contains`,
`separate`, `support`, `radial_scale`, `value`, `grad`) take float64
1-d arrays and trust them.

`separate` is exact separation in one pass: it decides containment
exactly as `contains` does and builds the separating normal from the
quantities that decision computed (the ball's y - center, the box's
excess q - clip(q), the ellipsoid's M q, the polytope's A y, the
simplex's projection), so `ExactSeparation` runs one containment test
per query, not a test and then a second pass for the normal.

Stack forms answer k queries in one call and trust their float64 (k, n)
stacks the same way: `BodySpec.support_rows`, and the `rows` methods of
`ExactOptimization` (a stack of maximizers) and `ExactValidity` (a bool
array, True where the answer is SOME_ABOVE).  A single OPT or VAL call
is its `rows` on a stack of one, so the rule for a zero direction lives
in one place.  `support_rows` answers each row bitwise as `support`
does: row dots use `np.vecdot` and row norms `sqrt(vecdot)`, the
computations of `c @ y` and `np.linalg.norm`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (INSIDE_DILATED, MEM, OPT, OUTSIDE_ERODED, SEP, VAL, VIOL,
                   GradAnswer, MembershipAnswer, OptimizationAnswer,
                   ProblemGeometry, SeparationAnswer, ValidityAnswer,
                   ViolationAnswer, check_precision)
from .geometry import HalfSpace, as_vector, normalized, unit

_FEAS_TOL = 1e-9


class UnsupportedVariant(TypeError):
    pass


# ---------------------------------------------------------------------------
# bodies

class BodySpec:
    """Common surface: exact containment, support, geometry, kernel codes."""

    geometry: ProblemGeometry

    @property
    def dim(self) -> int:
        return self.geometry.n

    def kernel_args(self):
        """(code, M, v, s) encoding for the membership kernels."""
        raise UnsupportedVariant(type(self).__name__)

    def contains(self, y: np.ndarray) -> bool:
        code, M, v, s = self.kernel_args()
        return bool(kernels.inside(code, np.asarray(y, dtype=np.float64), M, v, s))

    def separate(self, y: np.ndarray) -> np.ndarray | None:
        """None when y is in K (exactly when `contains(y)`), otherwise a
        unit c with sup_{x in K} <c, x> <= <c, y>."""
        raise UnsupportedVariant(type(self).__name__)

    def support(self, c: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact support value max_{x in K} <c, x> and a maximizer."""
        raise UnsupportedVariant(type(self).__name__)

    def support_rows(self, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`support` at every row of the (k, n) stack C, k >= 1: the k
        values and the (k, n) stack of maximizers, bitwise equal to k
        `support` calls.  This default makes those calls; the ball, box
        and simplex answer the stack in one pass."""
        values, args = zip(*(self.support(c) for c in C))
        return np.array(values), np.array(args)

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

    def kernel_args(self):
        return kernels.BALL, kernels._EMPTY_M, self.center, self.radius

    def separate(self, y):
        q = y - self.center
        if q @ q <= self.radius * self.radius:
            return None
        return normalized(q)

    def support(self, c):
        return float(c @ self.center) + self.radius * float(np.linalg.norm(c)), \
            self.center + self.radius * unit(c)

    def support_rows(self, C):
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(C, C))
        if not norms.all():
            raise ValueError("cannot normalize the zero vector")
        return (np.vecdot(C, self.center) + self.radius * norms,
                self.center + self.radius * (C / norms[:, None]))

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

    def kernel_args(self):
        return kernels.BOX, kernels._EMPTY_M, self.center, self.radius

    def separate(self, y):
        q = y - self.center
        # zero exactly where |q_i| <= radius: float subtraction of two
        # distinct numbers is never zero
        excess = q - np.clip(q, -self.radius, self.radius)
        if not excess.any():
            return None
        return normalized(excess)

    def support(self, c):
        sgn = np.where(c >= 0.0, 1.0, -1.0)
        arg = self.center + self.radius * sgn
        return float(c @ arg), arg

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
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        n, s = self.dim_, self.scale
        t = s / (n + math.sqrt(n))
        x0 = np.full(n, t)
        verts = [np.zeros(n)] + [s * e for e in np.eye(n)]
        R = max(float(np.linalg.norm(v - x0)) for v in verts)
        object.__setattr__(self, "geometry", ProblemGeometry(n, t, R, x0))

    def kernel_args(self):
        return kernels.SIMPLEX, kernels._EMPTY_M, kernels._EMPTY_V, self.scale

    def separate(self, y):
        """The normal is y minus y's Euclidean projection onto K."""
        s = self.scale
        if y.min() >= 0.0:
            if y.sum() <= s:
                return None
            # y >= 0 lies beyond the face sum x = s
            return normalized(y - _project_simplex_face(y, s))
        p = np.maximum(y, 0.0)
        if p.sum() > s:
            p = _project_simplex_face(y, s)
        return normalized(y - p)

    def support(self, c):
        i = int(np.argmax(c))
        if c[i] <= 0.0:
            return 0.0, np.zeros(self.dim)
        arg = np.zeros(self.dim)
        arg[i] = self.scale
        return self.scale * float(c[i]), arg

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
    """Intersection of halfspaces {<a_i, x> <= b_i} with unit-norm rows.

    Requires an interior point; the inner radius is certified from the
    facet slacks there and the outer radius from full vertex
    enumeration, so the facet count must keep C(m, n) manageable.
    """

    MAX_SUBSETS = 1 << 20

    def __init__(self, A, b, interior_point):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise ValueError("A must be m x n with matching b")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms <= 0):
            raise ValueError("zero facet normal")
        self.A = A / norms[:, None]
        self.b = b / norms
        x0 = as_vector(interior_point)
        slack = self.b - self.A @ x0
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

    def kernel_args(self):
        return kernels.HPOLY, self.A, self.b, 0.0

    def separate(self, y):
        """The most violated facet's normal; valid in any dimension."""
        Ay = self.A @ y
        if (Ay <= self.b).all():
            return None
        return self.A[int(np.argmax(Ay - self.b))].copy()

    def support(self, c):
        vals = self.vertices @ c
        i = int(np.argmax(vals))
        return float(vals[i]), self.vertices[i]

    def radial_scale(self, u):
        x0 = self.geometry.center
        num = self.b - self.A @ x0
        den = self.A @ u
        pos = den > 0
        return float(np.min(num[pos] / den[pos]))


@dataclass(frozen=True)
class Ellipsoid(BodySpec):
    """{x : (x - center)^T shape^-1 (x - center) <= 1}, shape PD."""

    center: np.ndarray
    shape: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        S = np.asarray(self.shape, dtype=np.float64)
        S = 0.5 * (S + S.T)
        eigs = np.linalg.eigvalsh(S)
        if eigs[0] <= 0:
            raise ValueError("shape matrix must be positive definite")
        object.__setattr__(self, "shape", S)
        object.__setattr__(self, "_inv", np.linalg.inv(S))
        object.__setattr__(self, "geometry", ProblemGeometry(
            self.center.size, math.sqrt(eigs[0]), math.sqrt(eigs[-1]), self.center))

    def kernel_args(self):
        return kernels.ELLIPSOID, self._inv, self.center, 0.0

    def separate(self, y):
        q = y - self.center
        Mq = self._inv @ q
        if q @ Mq <= 1.0:
            return None
        return normalized(Mq)

    def support(self, c):
        Sc = self.shape @ c
        w = math.sqrt(float(c @ Sc))
        if w == 0.0:
            return float(c @ self.center), self.center.copy()
        return float(c @ self.center) + w, self.center + Sc / w

    def radial_scale(self, u):
        return 1.0 / math.sqrt(float(u @ (self._inv @ u)))


class Intersection(BodySpec):
    """Conjunction of bodies; inner ball certified by the caller."""

    def __init__(self, parts: list[BodySpec], inner_center, inner_radius: float):
        if not parts:
            raise ValueError("need at least one part")
        x0 = as_vector(inner_center)
        for p in parts:
            if p.dim != x0.size:
                raise ValueError("dimension mismatch among parts")
        self.parts = list(parts)
        R = min(float(np.linalg.norm(p.geometry.center - x0)) + p.geometry.R
                for p in parts)
        self.geometry = ProblemGeometry(x0.size, inner_radius, R, x0)

    def contains(self, y):
        return all(p.contains(y) for p in self.parts)

    def separate(self, y):
        """The normal of the first part that does not contain y."""
        for part in self.parts:
            normal = part.separate(y)
            if normal is not None:
                return normal
        return None

    def radial_scale(self, u):
        return min(_radial_from(p, self.geometry.center, u) for p in self.parts)


def _radial_from(body: BodySpec, x0: np.ndarray, u: np.ndarray) -> float:
    """max t with x0 + t*u in body, by bisection against exact containment."""
    if np.array_equal(x0, body.geometry.center):
        return body.radial_scale(u)
    hi = body.geometry.R + float(np.linalg.norm(x0 - body.geometry.center))
    return float(kernels.bisect_rows(_contains_rows(body), x0[None, :], u, (hi,), (80,))[0])


def _contains_rows(spec: BodySpec):
    """Exact containment of every row of a (k, n) stack, as a bool array:
    the kernel's row test for a body with a kernel encoding, otherwise
    `spec.contains` row by row."""
    try:
        code, M, v, s = spec.kernel_args()
    except UnsupportedVariant:
        return lambda P: np.array([spec.contains(p) for p in P], dtype=bool)
    return lambda P: kernels.inside_rows(code, P, M, v, s)


def _enumerate_vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, n = A.shape
    out = []
    for idx in itertools.combinations(range(m), n):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + _FEAS_TOL):
            out.append(v)
    if not out:
        return np.zeros((0, n))
    return np.unique(np.round(np.array(out), 12), axis=0)


def _project_simplex_face(y: np.ndarray, s: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = s}, the projection onto
    the simplex of a y whose positive part sums past s (sorted-threshold
    algorithm)."""
    u_srt = np.sort(y)[::-1]
    css = np.cumsum(u_srt) - s
    cond = u_srt - css / np.arange(1, y.size + 1) > 0
    k = int(np.flatnonzero(cond)[-1]) + 1
    return np.maximum(y - css[k - 1] / k, 0.0)


# ---------------------------------------------------------------------------
# exact oracles over bodies

def exact_membership(spec: BodySpec, y, delta: float) -> MembershipAnswer:
    """Answer by exact containment: always a valid MEM answer at any delta."""
    check_precision(delta)
    return INSIDE_DILATED if spec.contains(as_vector(y)) else OUTSIDE_ERODED


class ExactMembership:
    """Callable MEM oracle for a reference body, with a bisection fast path."""

    kind = MEM

    def __init__(self, spec: BodySpec):
        self.spec = spec
        self._contains_rows = _contains_rows(spec)

    def __call__(self, y, delta):
        return exact_membership(self.spec, y, delta)

    def alpha_bisect_rows(self, D, x, hi, iters, delta):
        """Run the full membership bisection for max{a : D[i] + a*x in K}
        at every row of the (k, n) stack D, with per-row brackets hi and
        round counts iters, as one lockstep bisection."""
        return kernels.bisect_rows(self._contains_rows, D, x, hi, iters)

    def alpha_bisect(self, d, x, hi, iters, delta):
        """`alpha_bisect_rows` for the single ray d + a*x."""
        return float(self.alpha_bisect_rows(d[None, :], x, (hi,), (iters,), delta)[0])


def exact_support(spec: BodySpec, c) -> tuple[float, np.ndarray]:
    return spec.support(as_vector(c))


def brute_force_lp(spec: HPolytope, c) -> tuple[float, np.ndarray]:
    """Independent LP oracle: re-enumerates facet-subset intersections.

    Deliberately does not reuse the vertices cached at construction;
    this is the second route of the dual-route support check.
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
        y = as_vector(y)
        normal = self.spec.separate(y)
        if normal is None:
            return SeparationAnswer()
        return SeparationAnswer(HalfSpace(normal, y, 0.0))


class ExactOptimization:
    kind = OPT

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, delta):
        return OptimizationAnswer(self.rows(as_vector(c)[None, :], delta)[0])

    def rows(self, C, delta):
        """One query per row of the float64 (k, n) stack C, taken as
        given: the (k, n) stack of maximizers.  A zero row gets the
        body's center: <0, y> = 0 everywhere, so any point maximizes."""
        nonzero = C.any(axis=1)
        if nonzero.all():
            return self.spec.support_rows(C)[1]
        out = np.repeat(self.spec.geometry.center[None, :], C.shape[0], axis=0)
        if nonzero.any():
            out[nonzero] = self.spec.support_rows(C[nonzero])[1]
        return out


class ExactViolation:
    kind = VIOL

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, gamma, delta):
        c = as_vector(c)
        if not np.any(c):
            center = self.spec.geometry.center.copy()
            return ViolationAnswer(center) if 0.0 >= gamma else ViolationAnswer(None)
        val, arg = self.spec.support(c)
        return ViolationAnswer(arg) if val >= gamma else ViolationAnswer(None)


class ExactValidity:
    kind = VAL

    def __init__(self, spec: BodySpec):
        self.spec = spec

    def __call__(self, c, gamma, delta):
        some_above = self.rows(as_vector(c)[None, :], gamma, delta)[0]
        return ValidityAnswer.SOME_ABOVE if some_above else ValidityAnswer.ALL_BELOW

    def rows(self, C, gammas, delta):
        """One query per row of the float64 (k, n) stack C against its
        own threshold gammas[i], taken as given: a bool array, True where
        the answer is SOME_ABOVE.  A zero row's support value is 0."""
        nonzero = C.any(axis=1)
        if nonzero.all():
            return self.spec.support_rows(C)[0] >= gammas
        values = np.zeros(C.shape[0])
        if nonzero.any():
            values[nonzero] = self.spec.support_rows(C[nonzero])[0]
        return values >= gammas


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
