"""The benchmark's three workloads: seeded inputs, one answer, its grade.

A workload is a fixed cycle of answer kinds.  Set-up builds every body
and a pool of query points, objectives and random streams from the
workload seed; the timed loop then walks the pool, one answer at a time.
Each answer builds its oracle chain on a body that already exists, asks
one top-level question, and returns the raw answer with its query
counts.  Grading happens outside the timed region, against the bodies'
closed-form support functions, with the tolerances the experiment
harness uses (`sound` for a halfspace that keeps the whole body, a gap
of at most eps * (1 + kappa) for an optimum; three times that for
`opt_from_val`).

Answers fail in two classes that are known defects of the program and
are counted, not fatal (`Case.defect`):

* `SepFromMem` on `random_hpolytope` bodies of high condition number
  (kappa about 1e4 to 1e6 at n = 32) returns cuts that slice off part
  of the body;
* the epigraph chains `opt_from_val` and `sep_from_opt`: the former
  turns nearly vertical cuts into maximizers far outside the body, and
  acceptance criterion 8 itself tolerates up to 10% unsound
  `sep_from_opt` cuts.

A failure anywhere else marks the run incorrect.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from orc import (MEM, OPT, SEP, VAL, Ball, BoxBody, Ellipsoid,
                 ExactMembership, ExactOptimization, ExactSeparation,
                 ExactValidity, OptimizerConfig, QueryLedger, RandomStream,
                 SepFromMem, Simplex, ellipsoid, opt_from_val,
                 random_hpolytope, sep_from_opt, wrap_with_ledger)
from orc.geometry import unit

#: outside query points sit at this multiple of the body's radial scale
QUERY_DISTANCE = 1.5


@dataclass(frozen=True)
class Result:
    """One answer before grading: the oracle's reply (or the exception it
    raised) and the queries it spent, base oracle first."""

    reply: object
    counts: tuple


class Case:
    """One question on a built body; `ask` is the timed part."""

    label: str
    defect: bool = False

    def ask(self) -> Result:
        raise NotImplementedError

    def grade(self, reply) -> str:
        raise NotImplementedError


def _outside_point(body, direction: np.ndarray) -> np.ndarray:
    return body.geometry.center + QUERY_DISTANCE * body.radial_scale(direction) * direction


_PLASTIC = 1.32471795724474602596


class _Directions:
    """Unit directions for one input kind.  In two and three dimensions
    they follow a low-discrepancy sequence (golden angle on the circle,
    the R2 sequence mapped to the sphere) under a seeded random rotation,
    so that even a short run spreads its queries evenly; in higher
    dimensions they are Gaussian draws."""

    def __init__(self, n: int, gen: np.random.Generator):
        self.n, self.gen, self.k = n, gen, 0
        q, r = np.linalg.qr(gen.normal(size=(n, n)))
        self.rotation = q * np.sign(np.diag(r))

    def __call__(self) -> np.ndarray:
        k, self.k = self.k, self.k + 1
        if self.n == 2:
            angle = 2.0 * np.pi * ((0.5 + k / ((1.0 + 5.0 ** 0.5) / 2.0)) % 1.0)
            u = np.array([np.cos(angle), np.sin(angle)])
        elif self.n == 3:
            z = 1.0 - 2.0 * ((0.5 + k / _PLASTIC) % 1.0)
            angle = 2.0 * np.pi * ((0.5 + k / _PLASTIC ** 2) % 1.0)
            rho = (1.0 - z * z) ** 0.5
            u = np.array([rho * np.cos(angle), rho * np.sin(angle), z])
        else:
            return unit(self.gen.normal(size=self.n))
        return self.rotation @ u


def _grade_halfspace(body, reply) -> str:
    """The query lies outside the body, so `inside` is a wrong answer."""
    if reply.halfspace is None:
        return "inside"
    h = reply.halfspace
    sup, _ = body.support(h.normal)
    return "sound" if sup <= float(h.normal @ h.anchor) + h.slack + 1e-12 else "violated"


def _grade_opt(body, reply, c: np.ndarray, eps: float) -> str:
    if reply.empty_interior:
        return "empty_interior"
    sup, _ = body.support(c)
    gap = sup - float(c @ reply.maximizer)
    tol = eps * float(np.linalg.norm(c)) * (1.0 + body.geometry.kappa)
    return "sound" if gap <= tol else "violated"


def _asked(query, *ledgers_and_kinds) -> Result:
    """Run `query` and read the ledgers even when it raises."""
    try:
        reply = query()
    except Exception as exc:  # graded as a failed answer, not fatal
        reply = exc
    return Result(reply, tuple(ledger.count(kind) for ledger, kind in ledgers_and_kinds))


# ---------------------------------------------------------------------------
# sep_mem: SepFromMem over ExactMembership

class SepMemCase(Case):
    def __init__(self, label, body, x, stream, defect):
        self.label, self.body, self.x, self.stream = label, body, x, stream
        self.defect = defect

    def ask(self) -> Result:
        ledger = QueryLedger()
        mem = wrap_with_ledger(ExactMembership(self.body), ledger)
        sep = SepFromMem(mem, self.body.geometry, self.stream, eps=1e-10, rho=0.1)
        return _asked(lambda: sep(self.x, 0.01), (ledger, MEM))

    def grade(self, reply) -> str:
        return _grade_halfspace(self.body, reply)


# ---------------------------------------------------------------------------
# opt_sep: optimize_linear over ExactSeparation

OPT_SEP_EPS = 1e-3


class OptSepCase(Case):
    def __init__(self, label, body, c):
        self.label, self.body, self.c = label, body, c

    def ask(self) -> Result:
        ledger = QueryLedger()
        sep = wrap_with_ledger(ExactSeparation(self.body), ledger)
        cfg = OptimizerConfig(eps=OPT_SEP_EPS)
        # looked up on its module, where the traced run puts its wrapper
        return _asked(lambda: ellipsoid.optimize_linear(cfg, sep, self.body.geometry, self.c),
                      (ledger, SEP))

    def grade(self, reply) -> str:
        return _grade_opt(self.body, reply, self.c, OPT_SEP_EPS)


# ---------------------------------------------------------------------------
# web: sep_from_opt over ExactOptimization, opt_from_val over ExactValidity

WEB_EPS = 0.02
WEB_SEP_EPS = 1e-4


class SepFromOptCase(Case):
    defect = True

    def __init__(self, label, body, x, stream):
        self.label, self.body, self.x, self.stream = label, body, x, stream

    def ask(self) -> Result:
        sep = sep_from_opt(ExactOptimization(self.body), self.body.geometry, self.stream,
                           eps=WEB_EPS, sep_eps=WEB_SEP_EPS, rho=0.1)
        led = sep.ledgers
        return _asked(lambda: sep(self.x, WEB_EPS),
                      (led.opt, OPT), (led.mem, MEM), (led.sep, SEP))

    def grade(self, reply) -> str:
        return _grade_halfspace(self.body, reply)


class OptFromValCase(Case):
    defect = True

    def __init__(self, label, body, c, stream):
        self.label, self.body, self.c, self.stream = label, body, c, stream

    def ask(self) -> Result:
        opt = opt_from_val(ExactValidity(self.body), self.body.geometry, self.stream,
                           eps=WEB_EPS, sep_eps=WEB_SEP_EPS, rho=0.1)
        led = opt.ledgers
        return _asked(lambda: opt(self.c, WEB_EPS),
                      (led.val, VAL), (led.mem, MEM), (led.sep, SEP))

    def grade(self, reply) -> str:
        # the chain's practical accuracy is three times its eps, as in
        # the experiment harness
        return _grade_opt(self.body, reply, self.c, 3.0 * WEB_EPS)


# ---------------------------------------------------------------------------
# workload definitions

@dataclass
class Inputs:
    """Everything one set-up builds: the answer pool and its cost."""

    cases: list
    cycle: int          # answers per cycle of the mix
    build_ms: float     # time spent in body constructors


class Workload:
    """A named mix.  `CYCLE` lists (chain, body kind, n, answers per
    cycle); `build(seed)` makes the bodies and a pool of `cycles` cycles
    of fresh queries, and `warmup` answers from the front of the pool
    run during set-up.  Every run answers the whole pool at least once,
    so `cycles` is set for one pass to take two thirds (`sep_mem`,
    `opt_sep`) to all (`web`) of a 30-second run on a 2-vCPU Xeon VM.
    The answer counts per cycle put the median and
    the tail inside one cost cluster each, not between two clusters,
    so that neither statistic jumps when the share of a cluster moves
    slightly.  `tail_pct` is the highest percentile with at least ten
    answers beyond it in a 30-second run on a 2-vCPU Xeon VM; it stays
    fixed, so that runs of any length, and the commits they measure,
    report the same percentile."""

    name: str
    base: str
    cycles: int
    warmup: int
    tail_pct: float
    CYCLE: tuple

    def bodies(self, make, gen: np.random.Generator) -> dict:
        """(body kind, n) -> bodies to cycle through."""
        raise NotImplementedError

    def case(self, chain, label, body, direction, stream) -> Case:
        raise NotImplementedError

    def build(self, seed: int) -> Inputs:
        gen = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        make = _Bodies()
        pools = self.bodies(make, gen)
        directions = [_Directions(n, gen) for _, _, n, _ in self.CYCLE]
        streams = RandomStream(seed).child(self.name)
        cases = []
        for k in range(self.cycles):
            for (chain, kind, n, count), direction in zip(self.CYCLE, directions):
                members = pools[kind, n]
                for r in range(count):
                    body = members[(k * count + r) % len(members)]
                    label = f"{chain}-{kind}-{n}" if chain else f"{kind}-{n}"
                    cases.append(self.case(chain, label, body, direction(),
                                           streams.child(k, len(cases))))
        return Inputs(cases, len(cases) // self.cycles, make.ns / 1e6)


class _Bodies:
    """Times body construction so `bodies.build_ms` can be reported."""

    def __init__(self):
        self.ns = 0

    def __call__(self, ctor, *args):
        start = time.perf_counter_ns()
        body = ctor(*args)
        self.ns += time.perf_counter_ns() - start
        return body


def _random_ellipsoid(n: int, gen: np.random.Generator) -> Ellipsoid:
    return Ellipsoid(np.zeros(n), np.diag(gen.uniform(0.5, 1.5, size=n) ** 2))


class SepMem(Workload):
    """Every query point sits outside the body, at 1.5 times its radial
    scale.  Ellipsoids are cheap, so many per dimension average out how
    often the query lands beyond the outer radius (the one-query far
    branch); polytope construction enumerates C(n + 4, 4) vertex
    candidates, so n = 32 gets a single polytope."""

    name, base, cycles, warmup, tail_pct = "sep_mem", MEM, 160, 3, 99.5
    CYCLE = (("", "simplex", 8, 1), ("", "ellipsoid", 8, 1), ("", "hpoly", 8, 1),
             ("", "ellipsoid", 16, 1), ("", "simplex", 16, 3), ("", "hpoly", 16, 3),
             ("", "simplex", 32, 1), ("", "ellipsoid", 32, 1), ("", "hpoly", 32, 1))
    ELLIPSOIDS = 32
    POLYTOPES = {8: 4, 16: 2, 32: 1}

    def bodies(self, make, gen):
        pools = {}
        for n in (8, 16, 32):
            pools["simplex", n] = [make(Simplex, n)]
            pools["ellipsoid", n] = [make(_random_ellipsoid, n, gen) for _ in range(self.ELLIPSOIDS)]
            pools["hpoly", n] = [make(random_hpolytope, n, gen) for _ in range(self.POLYTOPES[n])]
        return pools

    def case(self, chain, label, body, direction, stream):
        return SepMemCase(label, body, _outside_point(body, direction), stream,
                          defect=label.startswith("hpoly"))


class OptSep(Workload):
    """Box and simplex are fixed bodies; ellipsoids are drawn, several
    per dimension, so their condition number (which sets the cut count)
    averages out."""

    name, base, cycles, warmup, tail_pct = "opt_sep", SEP, 8, 3, 90.0
    CYCLE = (("", "box", 4, 1), ("", "ellipsoid", 4, 1), ("", "simplex", 4, 1),
             ("", "ellipsoid", 8, 1), ("", "box", 8, 2), ("", "simplex", 8, 1),
             ("", "ellipsoid", 16, 1), ("", "box", 16, 1), ("", "simplex", 16, 2))
    ELLIPSOIDS = 8

    def bodies(self, make, gen):
        pools = {}
        for n in (4, 8, 16):
            pools["box", n] = [make(BoxBody, np.zeros(n), 1.0)]
            pools["ellipsoid", n] = [make(_random_ellipsoid, n, gen) for _ in range(self.ELLIPSOIDS)]
            pools["simplex", n] = [make(Simplex, n)]
        return pools

    def case(self, chain, label, body, direction, stream):
        return OptSepCase(label, body, direction)


class Web(Workload):
    """Both epigraph chains on fixed bodies; objectives, query points
    and the chains' random streams are drawn."""

    name, base, cycles, warmup, tail_pct = "web", f"{OPT}+{VAL}", 3, 2, 80.0
    CYCLE = (("opt_from_val", "box", 2, 3), ("opt_from_val", "simplex", 2, 3),
             ("sep_from_opt", "ball", 2, 1), ("sep_from_opt", "box", 2, 1),
             ("opt_from_val", "box", 3, 3), ("opt_from_val", "simplex", 3, 3),
             ("sep_from_opt", "ball", 3, 3), ("sep_from_opt", "box", 3, 3))

    def bodies(self, make, gen):
        pools = {}
        for n in (2, 3):
            pools["ball", n] = [make(Ball, np.zeros(n), 1.0)]
            pools["box", n] = [make(BoxBody, np.zeros(n), 1.0)]
            pools["simplex", n] = [make(Simplex, n)]
        return pools

    def case(self, chain, label, body, direction, stream):
        if chain == "opt_from_val":
            return OptFromValCase(label, body, direction, stream)
        return SepFromOptCase(label, body, _outside_point(body, direction), stream)


WORKLOADS = {w.name: w for w in (SepMem(), OptSep(), Web())}
