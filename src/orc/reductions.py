"""Correspondences between set oracles and function oracles.

Four identifications carry the whole web:

* indicator function ``1_K`` (0 on the set, +inf outside): evaluating it
  is membership, taking its subgradient is separation;
* support function ``1_K*(c) = max_{x in K} <c, x>``: evaluating it is a
  single optimization query, and its subgradient is the maximizer;
* polar body ``K° = {z : 1_K*(z) <= 1}`` of a body around the origin:
  membership in K° at z is one VAL query of K at threshold 1, and
  separation from K° at z is one OPT query of K;
* epigraph body ``K_f = {(x/2, t/4) : ||x|| <= 1, f(x) <= t <= 2}`` for a
  convex f on the unit ball with values in [0, 1]: membership in K_f is
  one question "is f(x) <= t?", and conversely f can be recovered from
  K_f by bisection along the t axis.

Composing these with the membership-to-separation estimator and the
cutting-plane optimizer yields every pairwise reduction among the set
oracles; the composed constructors at the bottom of this module package
the useful chains.  `opt_from_val` and `sep_from_opt` view their base
oracle once per chain as that of the normalized body (K - x0)/R, and
run on its polar body: `opt_from_val` bisects the support function from
VAL and asks one SEP-from-MEM query of the polar body, whose cut is the
maximizer; `sep_from_opt` asks the analytic-centre engine (`accpm`)
for a violation witness over SEP of the polar body, where one OPT query
is an exact SEP query.  `opt_from_mem` keeps the ellipsoid (see `accpm`
for why).  `opt_from_mem` and `opt_from_val` ask their SEP from MEM at
`inner_sep_eps(eps)` and `separation.RHO`, unless `opt_from_val` is
given a `sep_eps` or `rho`.

Stack forms.  `support_eval_from_opt`, `eval_support_from_val`,
`eval_from_mem_epigraph`, `EpigraphBody.as_mem` and the two normalized
views answer a (k, n) stack of queries as their `rows`, and a single
call is the stack form on a stack of one: `core.single_of` builds it,
with the one entry check of the query, for every view but `as_mem`,
whose single call is `EpigraphBody.membership`.  Each asks its inner
oracle through `core.rows_of`: one call per stack over an inner `rows`
form (the exact oracles), one query per row, in row order, over any
other (plain callables such as `bodies.FlipNoise`).  Every bisection
here runs in lockstep through `kernels.bisect_rows`, one stacked query
per round whatever the base oracle: the two evaluations' (VAL, MEM),
and the height oracle's over the 2n rows of a subgradient estimate on
the polar body (one VAL query per row and round) or on an epigraph.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import kernels
from .core import (EVAL, GRAD, MEM, OPT, SEP, SEP_INSIDE, VAL,
                   EmptyInteriorPropagated, GradAnswer, MembershipAnswer,
                   OptimizationAnswer, ProblemGeometry, QueryLedger,
                   RandomStream, SeparationAnswer, ValidityAnswer,
                   check_precision, rows_of, single_of, wrap_with_ledger)
from .accpm import optimize_linear_accpm
from .ellipsoid import OptimizerConfig, OracleInconsistency, optimize_linear
from .geometry import HalfSpace, _halfspace, as_vector, as_vector_of, normalized, unit
from .separation import RHO, SepFromMem

INSIDE = MembershipAnswer.INSIDE_DILATED
OUTSIDE = MembershipAnswer.OUTSIDE_ERODED

#: EVAL(1_K) answers are classified against this threshold: the indicator
#: only takes the values 0 and +inf, so any finite cutoff in between works;
#: 1/2 keeps maximal slack against evaluation noise on both sides.
INDICATOR_THRESHOLD = 0.5


class VerticalCut(RuntimeError):
    """The separating cut carried no slope information (c_t ~ 0)."""


# ---------------------------------------------------------------------------
# indicator identifications: MEM(K) = EVAL(1_K), SEP(K) = GRAD(1_K)

def mem_from_eval_indicator(eval_oracle):
    def mem(y, delta):
        check_precision(delta)
        alpha = eval_oracle(y, delta)
        return INSIDE if alpha < INDICATOR_THRESHOLD else OUTSIDE

    mem.kind = MEM
    return mem


def eval_from_mem_indicator(mem):
    def eval_indicator(y, delta):
        check_precision(delta)
        return 0.0 if mem(y, delta).inside else math.inf

    eval_indicator.kind = EVAL
    return eval_indicator


def sep_from_grad_indicator(grad):
    def sep(y, delta):
        check_precision(delta)
        answer = grad(y, delta)
        if answer.value < INDICATOR_THRESHOLD:
            return SEP_INSIDE
        return SeparationAnswer(HalfSpace(unit(answer.subgrad), y, 0.0))

    sep.kind = SEP
    return sep


def grad_from_sep_indicator(sep):
    def grad(y, delta):
        check_precision(delta)
        answer = sep(y, delta)
        if answer.halfspace is None:
            return GradAnswer(0.0, np.zeros(np.size(as_vector(y))))
        return GradAnswer(math.inf, answer.halfspace.normal.copy())

    grad.kind = GRAD
    return grad


def mem_from_sep(sep):
    """Membership is separation with the certificate discarded."""

    def mem(y, delta):
        return INSIDE if sep(y, delta).halfspace is None else OUTSIDE

    mem.kind = MEM
    return mem


# ---------------------------------------------------------------------------
# epigraph body K_f

class EpigraphBody:
    """The scaled epigraph {(x/2, t/4) : ||x|| <= 1, f(x) <= t <= 2}.

    For any convex f on the unit ball with range inside [0, 1], the point
    c* = (0, 3/8) is deep inside: the scaled t coordinate ranges over
    [f/4, 1/2] ⊆ [0, 1/2], so c* sits at distance >= 1/8 from the graph
    and lid constraints and 1/2 from the ||x|| <= 1 wall, while every
    point of the body is within 0.625 of c*.  This certifies
    B(c*, 0.1) ⊆ K_f ⊆ B(c*, 0.625) with kappa = 6.25 regardless of f.
    (No ball around the origin fits: points with negative t coordinate
    are always outside when f >= 0.)

    f is given by `f_eval`, an EVAL oracle (x, delta) -> f(x).  The
    range requirement is enforced lazily: every f value is checked, and
    one outside [-`RANGE_SLACK`, 1 + `RANGE_SLACK`] raises ValueError.
    """

    INNER_RADIUS = 0.1
    OUTER_RADIUS = 0.625
    CENTER_T = 0.375
    RANGE_SLACK = 0.25

    def __init__(self, f_eval, dim: int):
        self.f_eval = f_eval
        self.dim = dim
        self._f_rows = rows_of(f_eval, EVAL)
        center = np.append(np.zeros(dim), self.CENTER_T)
        self.geometry = ProblemGeometry(dim + 1, self.INNER_RADIUS,
                                        self.OUTER_RADIUS, center)

    def membership(self, point, delta):
        """MEM(K_f) at one point: `membership_rows` on a stack of one."""
        point = as_vector_of(point, self.dim + 1)
        return INSIDE if self.membership_rows(point[None, :], delta)[0] else OUTSIDE

    def membership_rows(self, P: np.ndarray, delta) -> np.ndarray:
        """Membership of every row of the float64 (k, n+1) stack P, taken
        as given, as a bool array (True for INSIDE).  The rows that pass
        the cylinder and lid gate ask "f(x) <= t + margin?" at precision
        delta/10 (`_below`), in one call of f_eval's stack form."""
        check_precision(delta)
        X = 2.0 * P[:, :-1]
        t = 4.0 * P[:, -1]
        # a delta-ball around the query maps to at most a 4*delta margin
        # in the unscaled (x, t) coordinates
        margin = 4.0 * delta
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(X, X))
        gate = (norms <= 1.0 + margin) & (t <= 2.0 + margin)
        inside = np.zeros(P.shape[0], dtype=bool)
        if gate.any():
            # x / max(||x||, 1) is x itself inside the unit ball
            query = X[gate] / np.maximum(norms[gate], 1.0)[:, None]
            inside[gate] = self._below(query, t[gate] + margin, delta / 10.0)
        return inside

    def _below(self, X: np.ndarray, T: np.ndarray, delta) -> np.ndarray:
        """f(x) <= T row by row, one range-checked f value per row."""
        values = self._f_rows(X, delta)
        bad = ~((values >= -self.RANGE_SLACK) & (values <= 1.0 + self.RANGE_SLACK))
        if bad.any():
            raise ValueError(
                f"epigraph construction requires values in [0, 1]; got {values[bad][0]}")
        return values <= T

    def as_mem(self):
        """MEM view of the body, with `membership_rows` as its `rows`: a
        height estimate over it bisects in lockstep, one stacked f_eval
        query per round."""
        def mem(point, delta):
            return self.membership(point, delta)

        mem.kind = MEM
        mem.rows = self.membership_rows
        return mem


def eval_from_mem_epigraph(mem_kf, dim: int):
    """EVAL(f) from MEM(K_f): t = 2 - alpha for the largest alpha with
    (y/2, 1/2) + alpha (0, -1/4) inside, bisected over [0, 2] by
    `kernels.bisect_rows`, ceil(log2(2/delta)) MEM queries per row at
    delta / (4 iters); +inf on a row that never answers INSIDE."""
    mem_rows = rows_of(mem_kf, MEM)
    down = np.append(np.zeros(dim), -0.25)

    def rows(Y, delta):
        check_precision(delta)
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        if np.any(np.sqrt(np.vecdot(Y, Y)) > 1.0):
            raise ValueError("evaluation point must lie in the unit ball")
        iters = math.ceil(math.log2(2.0 / delta))
        inner_delta = delta / (4.0 * iters)
        k = Y.shape[0]
        lid = np.column_stack([0.5 * Y, np.full(k, 0.5)])
        alpha = kernels.bisect_rows(lambda P: mem_rows(P, inner_delta), lid, down,
                                    np.full(k, 2.0), np.full(k, iters))
        # the last bracket is alpha -+ 2^-iters: its lower end is 0 only
        # on a row that never answered INSIDE
        return np.where(alpha > 2.0 ** -iters, 2.0 - alpha, math.inf)

    return single_of(EVAL, rows, dim)


def grad_from_sep_epigraph(sep_kf, dim: int, mem_kf=None):
    """GRAD(f) from SEP(K_f), and MEM(K_f) when there is one.

    Evaluates f(y) by bisecting the t axis with `eval_from_mem_epigraph`
    over `mem_kf`, or, without one, over the separation oracle's
    membership side (`mem_from_sep`), so that GRAD from SEP alone keeps
    its meaning.  Then makes the one separation query of the reduction,
    just below the graph at (y/2, (alpha - delta)/4), and unpacks the
    returned halfspace normal (c_x, c_t) into the subgradient
    -2 c_x / c_t.  A nearly vertical cut (|c_t| < 1e-9) carries no slope
    information and raises `VerticalCut`.
    """
    eval_rows = eval_from_mem_epigraph(mem_from_sep(sep_kf) if mem_kf is None else mem_kf, dim).rows

    def grad(y, delta):
        check_precision(delta)
        y = as_vector_of(y, dim)
        alpha = float(eval_rows(y[None, :], delta)[0])
        if not math.isfinite(alpha):
            raise ValueError("cannot take a subgradient where f is infinite")
        h = sep_kf(np.append(0.5 * y, (alpha - delta) / 4.0), delta / 10.0).halfspace
        if h is None or abs(h.normal[-1]) < 1e-9:
            raise VerticalCut(f"no usable cut below the graph at depth {delta}")
        return GradAnswer(alpha, -2.0 * h.normal[:-1] / h.normal[-1])

    grad.kind = GRAD
    return grad


# ---------------------------------------------------------------------------
# support function 1_K*

def support_eval_from_opt(opt, geometry: ProblemGeometry):
    """EVAL(1_K*) from one optimization query at precision delta/(3+kappa);
    `rows(C, delta)` evaluates a stack."""
    opt_rows = rows_of(opt, OPT)

    def rows(C, delta):
        check_precision(delta)
        # vecdot of two contiguous rows is their c @ y
        return np.vecdot(C, opt_rows(C, delta / (3.0 + geometry.kappa)))

    return single_of(EVAL, rows, geometry.n)


def grad_conjugate_from_opt(opt, geometry: ProblemGeometry):
    """GRAD(1_K*): the subgradient of the support function is the maximizer."""

    def grad(c, delta):
        check_precision(delta)
        c = as_vector_of(c, geometry.n)
        answer = opt(c, delta / (3.0 + geometry.kappa))
        if answer.empty_interior:
            raise EmptyInteriorPropagated("support subgradient")
        y = answer.maximizer
        return GradAnswer(float(c @ y), y.copy())

    grad.kind = GRAD
    return grad


def val_from_eval_support(eval_support):
    """VAL(K) from one evaluation of the support function."""

    def val(c, gamma, delta):
        check_precision(delta)
        alpha = eval_support(c, delta)
        return (ValidityAnswer.ALL_BELOW if alpha <= gamma
                else ValidityAnswer.SOME_ABOVE)

    val.kind = VAL
    return val


def eval_support_from_val(val, geometry: ProblemGeometry):
    """EVAL(1_K*) from VAL(K) by bisection on the threshold gamma.

    The body lies in B(x0, R) around B(x0, r), so the support value lies
    in [c.x0 + r||c||, c.x0 + R||c||] and gamma is bracketed in
    [c.x0, c.x0 + R||c||]; ceil(log2(2 kappa / delta)) validity queries
    per call.  `rows(C, delta)` bisects a stack in lockstep
    (`kernels.bisect_rows`), one VAL query per row and round.
    """
    val_rows = rows_of(val, VAL)

    def rows(C, delta):
        check_precision(delta)
        out = np.zeros(C.shape[0])
        # sqrt(vecdot) is np.linalg.norm's computation, row by row
        norms = np.sqrt(np.vecdot(C, C))
        nonzero = np.flatnonzero(norms != 0.0)
        if nonzero.size:
            C, k = C[nonzero], nonzero.size
            iters = math.ceil(math.log2(2.0 * geometry.kappa / delta))
            inner_delta = delta / (geometry.kappa * iters)
            lo = np.vecdot(C, geometry.center)
            # gamma is "inside" while VAL answers SOME_ABOVE; all rows have
            # one round count, so the stack G stays aligned with C
            out[nonzero] = kernels.bisect_rows(
                lambda G: val_rows(C, G[:, 0], inner_delta), np.zeros((k, 1)),
                np.array([1.0]), lo + geometry.R * norms[nonzero], np.full(k, iters), lo)
        return out

    return single_of(EVAL, rows, geometry.n)


def _normalized_val(val, geometry: ProblemGeometry):
    """VAL of (K - x0)/R from VAL of K, for the centre x0 and the outer
    radius R of `geometry`: c . (x - x0)/R <= gamma exactly when
    c . x <= R gamma + c . x0, and precision delta there is R delta on
    K.  The scaled body lies in B(0, 1) around B(0, r/R), so its support
    function is in [r/R, 1] on unit c, and c lies in its polar body
    exactly when the answer at gamma = 1 is ALL_BELOW.  `rows` takes a
    (k,) array of thresholds or one scalar for every row, and asks the
    base VAL with a (k,) array either way."""
    val_rows = rows_of(val, VAL)
    R, shift = geometry.R, geometry.center

    def rows(C, gammas, delta):
        return val_rows(C, R * gammas + np.vecdot(C, shift), R * delta)

    return single_of(VAL, rows, geometry.n)


def _normalized_opt(opt, geometry: ProblemGeometry):
    """OPT of (K - x0)/R from OPT of K, as in `_normalized_val`: the
    maximizers map by y -> (y - x0)/R, and precision delta there is
    R delta on K."""
    opt_rows = rows_of(opt, OPT)
    R, shift = geometry.R, geometry.center

    def rows(C, delta):
        return (opt_rows(C, R * delta) - shift) / R

    return single_of(OPT, rows, geometry.n)


# ---------------------------------------------------------------------------
# composed chains

def inner_sep_eps(eps: float) -> float:
    """The membership precision (normalized frame) of the SEP-from-MEM
    oracle inside a chain of precision eps: eps 1e-4, measured, not
    derived.  With `orc run`'s seeding at eps 1e-3, eps 1e-2 left
    `opt_from_mem` on the box sound on 6 of 10 seeds at n = 4 and 1 of
    10 at n = 8, and eps 1e-4 made all of them sound (README's
    complexity note has the costs and a derived rule tried)."""
    return eps * 1e-4


def _counted_sep(mem, geometry: ProblemGeometry, rng: RandomStream, ledgers, *,
                 eps: float, sep_eps: float | None = None, rho: float = RHO):
    """The SEP from MEM of a chain of precision eps, at `sep_eps` or else
    `inner_sep_eps(eps)`, with its MEM counted in `ledgers.mem` and
    itself in `ledgers.sep`."""
    sep = SepFromMem(wrap_with_ledger(mem, ledgers.mem), geometry, rng, rho=rho,
                     eps=inner_sep_eps(eps) if sep_eps is None else sep_eps)
    return wrap_with_ledger(sep, ledgers.sep)


def opt_from_mem(mem, geometry: ProblemGeometry, rng: RandomStream, *, eps: float):
    """OPT(K) = cutting-plane over SEP(K) built from MEM(K) (`_counted_sep`),
    at `inner_sep_eps(eps)` and `separation.RHO`."""
    ledgers = SimpleNamespace(mem=QueryLedger(), sep=QueryLedger())
    counted_sep = _counted_sep(mem, geometry, rng, ledgers, eps=eps)
    cfg = OptimizerConfig(eps=eps)

    def opt(c, delta):
        check_precision(delta)
        return optimize_linear(cfg, counted_sep, geometry, c)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def opt_from_val(val, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, sep_eps: float | None = None, rho: float = RHO):
    """OPT(K) from VAL(K), as one separation query on the polar body.

    The base VAL is viewed as VAL of K~ = (K - x0)/R, for the centre x0
    and outer radius R of `geometry` (`_normalized_val`).  K~ lies in
    B(0, 1) around B(0, 1/kappa), so its polar K~° = {z : h~(z) <= 1},
    h~ the support function of K~, lies in B(0, kappa) around B(0, 1):
    `ProblemGeometry(n, 1, kappa)`.  MEM of K~° at z is one VAL query of
    K~ at threshold 1 and precision delta/kappa, since h~(z) <= 1 +
    delta/kappa puts z within delta of K~° (stack form: one VAL per
    row).  A query c at delta answers at d = min(eps, delta):

    * h~(u), u = c/||c||, is bisected from VAL (`eval_support_from_val`,
      ceil(log2(2 kappa/d)) queries) to within d/(2 kappa) <= d h~(u)/2;
    * p = (1 + d) u / h~(u) then lies outside K~°, and `SepFromMem` over
      MEM of K~°, at `sep_eps` (default `inner_sep_eps(eps)`) and `rho`,
      cuts it with a . w <= b, b = a . p + slack;
    * a cut that keeps K~° has b >= gauge(a) over K~, so a/b lies in K~,
      with u . a/b = h~(u) / (1 + d) up to the bisection's error: the
      maximizer is x0 + R a/b.

    A p that reads inside K~° contradicts the bisection's VAL answers,
    and raises `OracleInconsistency`.  When every bisection answer reads
    SOME_ABOVE, one more VAL at threshold 1 + d checks that K~ stays in
    the unit ball along u; a body past its stated radius raises
    ValueError.  `ledgers.val` counts VAL of K, `ledgers.mem` MEM of K~°
    and `ledgers.sep` SEP of K~°, one per answer.
    """
    ledgers = SimpleNamespace(val=QueryLedger(), mem=QueryLedger(), sep=QueryLedger())
    kappa = geometry.kappa
    nval = _normalized_val(wrap_with_ledger(val, ledgers.val), geometry)
    support = rows_of(eval_support_from_val(nval, geometry.rescaled()), EVAL)

    def polar_mem_rows(Z, delta):
        # one scalar threshold for every row: R * 1.0 is R, so the base
        # VAL gets the thresholds an array of ones gave it
        return ~nval.rows(Z, 1.0, delta / kappa)

    sep = _counted_sep(single_of(MEM, polar_mem_rows, geometry.n),
                       ProblemGeometry(geometry.n, 1.0, kappa), rng.child("opt_from_val"),
                       ledgers, eps=eps, sep_eps=sep_eps, rho=rho)

    def opt(c, delta):
        d = min(eps, check_precision(delta))
        c = as_vector_of(c, geometry.n)
        c_norm = float(np.linalg.norm(c))
        if c_norm == 0.0:
            return OptimizationAnswer(geometry.center.copy())
        u = c / c_norm
        h = float(support(u[None, :], d)[0])
        # h reads 1 - 2^-(rounds + 1), above 1 - d/(4 kappa), exactly when
        # every bisection answer was SOME_ABOVE
        if (h >= 1.0 - d / (4.0 * kappa)
                and nval(u, 1.0 + d, d / kappa) is ValidityAnswer.SOME_ABOVE):
            raise ValueError(f"the body reaches past its stated outer radius {geometry.R} "
                             f"along {u}")
        cut = sep((1.0 + d) / h * u, d).halfspace
        if cut is None:
            raise OracleInconsistency(
                f"the polar point (1 + {d}) u / {h} reads inside the polar body")
        b = float(cut.normal @ cut.anchor) + cut.slack
        return OptimizationAnswer(geometry.center + geometry.R / b * cut.normal)

    opt.kind = OPT
    opt.ledgers = ledgers
    return opt


def sep_from_opt(opt, geometry: ProblemGeometry, rng: RandomStream, *,
                 eps: float, sep_eps: float | None = None, rho: float = RHO):
    """SEP(K) from OPT(K), as linear optimization over the polar body.

    The base OPT is viewed as OPT of K~ = (K - x0)/R, for the centre x0
    and outer radius R of `geometry` (`_normalized_opt`), and a query y
    as s = (y - x0)/R.  K~ lies in B(0, 1) around B(0, 1/kappa), so its
    polar K~° = {c : <c, x> <= 1 on K~} lies in B(0, kappa) around
    B(0, 1): `ProblemGeometry(n, 1, kappa)`.  SEP of K~° at c is one OPT query at
    precision sigma = `sep_eps` (normalized frame; default
    `inner_sep_eps(eps)`): with x~ the maximizer, c reads inside when
    c . x~ <= 1, and otherwise the normal x~/||x~|| separates.  y lies in
    K exactly when <s, c> <= 1 on K~°, so `accpm.optimize_linear_accpm`
    maximizes <s, .> over K~° through that SEP, with its violation exit
    at gamma; a witness c gives the cut unit(c) . x <= unit(c) . y, and
    a run without one reads "inside".  So does a y with
    ||s|| kappa <= 1, which lies in B(x0, r), with no query.
    `ledgers.sep` counts one SEP of K~° per engine step, and
    `ledgers.opt` one OPT of K per step but the first: the engine starts
    at c = 0, which lies in K~° whatever K is, and asks no OPT there.
    `ledgers.mem` stays empty.

    A query at delta answers at d = min(eps, delta).  The engine runs at
    d / (||s|| (kappa + 1)), within d of the maximum, gauge(s), by
    `accpm`'s guarantee at K~°'s radii: "inside" means dist(y, K) <=
    R (gamma + d - 1), within 6 eps R while sigma kappa <= eps <= 1/2.
    The witness margin: an OPT at sigma may read h(c) = max_K~ <c, .> up
    to sigma ||c|| short, so SEP of K~° accepts c with
    h(c) <= 1 + sigma ||c||; with h(c) >= ||c||/kappa, such a c has
    ||c|| <= kappa/(1 - sigma kappa) and h(c) <= 1/(1 - sigma kappa).
    At gamma = (1 + d)/(1 - sigma kappa) every witness c has
    <s, c> > h(c), so every cut keeps K.

    `rng` and `rho` are unused; they go when perfbench's web workload
    stops passing them.
    """
    sigma = inner_sep_eps(eps) if sep_eps is None else sep_eps
    kappa = geometry.kappa
    OptimizerConfig(eps)  # checks 0 < eps < 1
    if not 0.0 < sigma * kappa < 1.0:
        raise ValueError(f"sep_eps * kappa must lie in (0, 1), got {sigma * kappa!r}")
    ledgers = SimpleNamespace(opt=QueryLedger(), mem=QueryLedger(), sep=QueryLedger())
    opt_rows = _normalized_opt(wrap_with_ledger(opt, ledgers.opt), geometry).rows
    polar = ProblemGeometry(geometry.n, 1.0, kappa)

    def polar_sep(c, delta):
        if not c.any():
            # 0 lies in K~° whatever K is: the engine's first centre
            return SEP_INSIDE
        x = opt_rows(c[None, :], sigma)[0]
        if float(c @ x) <= 1.0:
            return SEP_INSIDE
        return SeparationAnswer(_halfspace(normalized(x), c, 0.0))

    counted_polar_sep = wrap_with_ledger(polar_sep, ledgers.sep, SEP)

    def sep(y, delta):
        d = min(eps, check_precision(delta))
        y = as_vector_of(y, geometry.n)
        s = (y - geometry.center) / geometry.R
        s_norm = float(np.linalg.norm(s))
        if s_norm * kappa <= 1.0:
            return SEP_INSIDE
        gamma = (1.0 + d) / (1.0 - sigma * kappa)
        cfg = OptimizerConfig(eps=d / (s_norm * (kappa + 1.0)))
        c = optimize_linear_accpm(cfg, counted_polar_sep, polar, s, gamma=gamma).maximizer
        if float(s @ c) <= gamma:
            return SEP_INSIDE
        return SeparationAnswer(_halfspace(normalized(c), y, 0.0))

    sep.kind = SEP
    sep.ledgers = ledgers
    return sep
