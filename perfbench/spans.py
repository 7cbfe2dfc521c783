"""Spans around the public functions of each `orc` module.

Nothing in the library records spans: for the traced run, `instrument`
replaces the public functions and methods listed in `TARGETS` with
wrappers, everywhere the library binds them, and puts the originals
back afterwards.  Methods are replaced on their class, never by wrapping
an oracle object, so attribute lookups the library relies on (the
`alpha_bisect` fast path of `ExactMembership`) still find what they
found before and the traced run executes the same code path.

Metrics are aggregated as calls return and reported per traced answer:
call counts, self time (a span's time minus that of its child spans)
and a few counters that need the call tree, such as which branch a
separation query took.  Span records (name, start, end,
parent, answer) are kept in memory up to `record_cap` spans, a complete
prefix of the trace, and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

from orc import bodies, core, ellipsoid, geometry, height, kernels, reductions, separation, subgrad

FUNC, METHOD, FACTORY = "function", "method", "factory"

# (span name, owner, attribute, kind).  A function is replaced wherever
# an `orc` module binds it; a factory's returned closure is wrapped.
TARGETS = [
    ("kernels.bisect", kernels, "bisect_alpha", FUNC),
    ("kernels.cut", kernels, "ellipsoid_cut_py", FUNC),
    ("geometry.as_vector", geometry, "as_vector", FUNC),
    ("core.ledger", core.QueryLedger, "record", METHOD),
    ("core.rng", core.RandomStream, "generator", METHOD),
    ("bodies.mem", bodies.ExactMembership, "__call__", METHOD),
    ("bodies.alpha_bisect", bodies.ExactMembership, "alpha_bisect", METHOD),
    ("bodies.sep", bodies.ExactSeparation, "__call__", METHOD),
    ("bodies.opt", bodies.ExactOptimization, "__call__", METHOD),
    ("bodies.val", bodies.ExactValidity, "__call__", METHOD),
    ("height.alpha", height.HeightOracle, "alpha_x", METHOD),
    ("subgrad.estimate", subgrad, "separate_convex_func", FUNC),
    ("separation.query", separation.SepFromMem, "__call__", METHOD),
    ("ellipsoid.optimize", ellipsoid, "optimize_linear", FUNC),
    ("ellipsoid.cut", ellipsoid, "ellipsoid_cut", FUNC),
    ("ellipsoid.log_volume", ellipsoid.EllipsoidState, "log_volume", METHOD),
    ("reductions.epigraph_mem", reductions.EpigraphBody, "membership", METHOD),
    ("reductions.support_eval", reductions, "support_eval_from_opt", FACTORY),
    ("reductions.val_bisect", reductions, "eval_support_from_val", FACTORY),
    ("reductions.epigraph_grad", reductions, "grad_from_sep_epigraph", FACTORY),
]

ROOT = "answer"

# frame slots: name id, start ns, child ns, record index, subgrad
# estimates inside, MEM queries inside, alpha_bisect seen
_NID, _START, _CHILD, _REC, _EST, _MEM, _FAST = range(7)


class Tracer:
    """Span recorder plus the per-name aggregates the metrics need."""

    def __init__(self, record_cap: int):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.stack: list[list] = []
        self.record_cap = record_cap
        self.rec_name = array("q")
        self.rec_parent = array("q")
        self.rec_start = array("q")
        self.rec_end = array("q")
        self.dropped = 0
        for name, *_ in TARGETS:
            self.nid(name)
        self.nid(ROOT)
        self._post = self._posts()

    def nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def enclosing(self, nid: int):
        """Innermost open frame with this span name id, or None."""
        for frame in reversed(self.stack):
            if frame[_NID] == nid:
                return frame
        return None

    def wrap(self, name: str, fn):
        nid = self.nid(name)
        stack, clock = self.stack, time.perf_counter_ns
        calls, selfns = self.calls, self.self_ns
        rec_name, rec_parent = self.rec_name, self.rec_parent
        rec_start, rec_end = self.rec_start, self.rec_end
        post = self._post.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if len(rec_name) < tracer.record_cap:
                rec = len(rec_name)
                rec_name.append(nid)
                rec_parent.append(parent[_REC] if parent is not None else -1)
                rec_start.append(0)
                rec_end.append(0)
            else:
                rec = -1
                tracer.dropped += 1
            frame = [nid, 0, 0, rec, 0, 0, 0]
            stack.append(frame)
            frame[_START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                selfns[nid] += dur - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += dur
                if rec >= 0:
                    rec_start[rec] = start
                    rec_end[rec] = end
            if post is not None:
                post(frame, parent, args, result, dur)
            return result

        return traced

    # -- counters that need the call tree -----------------------------------

    def _posts(self) -> dict:
        """Hooks run after a span returns, by span name."""
        sep_nid, opt_nid = self.nid("separation.query"), self.nid("ellipsoid.optimize")

        def add_mem(count):
            frame = self.enclosing(sep_nid)
            if frame is not None:
                frame[_MEM] += count

        def bisect(frame, parent, args, result, dur):
            self.bump("kernels.bisect.iters", int(args[7]))

        def alpha_bisect(frame, parent, args, result, dur):
            if parent is not None:
                parent[_FAST] = 1
            add_mem(int(args[4]))

        def alpha(frame, parent, args, result, dur):
            self.bump("height.alpha.fast", frame[_FAST])

        def estimate(frame, parent, args, result, dur):
            outer = self.enclosing(sep_nid)
            if outer is not None:
                outer[_EST] += 1

        def one_mem(frame, parent, args, result, dur):
            add_mem(1)

        def sep_call(frame, parent, args, result, dur):
            if parent is not None and parent[_NID] == opt_nid:
                self.bump("ellipsoid.optimize.sep_ns", dur)

        def sep_query(frame, parent, args, result, dur):
            sep_call(frame, parent, args, result, dur)
            self.bump("separation.mem", frame[_MEM])
            if result.inside:
                self.bump("separation.branch.inside")
            elif frame[_EST]:
                self.bump("separation.branch.height")
                self.bump("separation.retries", frame[_EST] - 1)
            else:
                self.bump("separation.branch.far")

        return {
            "kernels.bisect": bisect,
            "bodies.alpha_bisect": alpha_bisect,
            "height.alpha": alpha,
            "subgrad.estimate": estimate,
            "bodies.mem": one_mem,
            "reductions.epigraph_mem": one_mem,
            "bodies.sep": sep_call,
            "separation.query": sep_query,
        }

    # -- answers ------------------------------------------------------------

    def answer(self, fn):
        """Run one answer under a root span, so its spans share an id."""
        return self.wrap(ROOT, fn)()

    # -- output -------------------------------------------------------------

    def metric(self, name: str, field: str) -> float:
        i = self.names.index(name)
        return self.calls[i] if field == "calls" else self.self_ns[i] / 1e6

    def save(self, path) -> None:
        name = np.frombuffer(self.rec_name, dtype=np.int64)
        parent = np.frombuffer(self.rec_parent, dtype=np.int64)
        roots = np.flatnonzero(name == self.names.index(ROOT))
        answer = np.searchsorted(roots, np.arange(name.size), side="right") - 1
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start_ns=np.frombuffer(self.rec_start, dtype=np.int64),
            end_ns=np.frombuffer(self.rec_end, dtype=np.int64),
            answer=answer, dropped=np.int64(self.dropped))


class instrument:
    """Context manager: swap every target for its traced wrapper."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        tracer = self.tracer
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "orc" or name.startswith("orc.")]
        for name, owner, attr, kind in TARGETS:
            original = getattr(owner, attr)
            if kind == METHOD:
                self._set(owner, attr, tracer.wrap(name, original))
            elif kind == FUNC:
                traced = tracer.wrap(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, binding, traced)
            else:
                self._set(owner, attr, _traced_factory(tracer, name, original))
        return tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False


def _traced_factory(tracer: Tracer, name: str, factory):
    def make(*args, **kwargs):
        inner = factory(*args, **kwargs)
        traced = tracer.wrap(name, inner)
        traced.kind = inner.kind
        return traced

    return make


RATIOS = ("height.alpha.fast_frac", "separation.mem_per_query", "ellipsoid.cuts_per_opt")


def layer_metrics(tracer: Tracer, answers: int) -> dict[str, float]:
    """Every per-layer metric of the traced answers, by name.  Counts and
    times are per answer; the three `RATIOS` are ratios of totals."""
    t, c = tracer, tracer.counters
    out: dict[str, float] = {}

    def calls_and_self(span):
        out[f"{span}.calls"] = t.metric(span, "calls")
        out[f"{span}.self_ms"] = t.metric(span, "self_ms")

    calls_and_self("kernels.bisect")
    out["kernels.bisect.iters"] = c.get("kernels.bisect.iters", 0)
    calls_and_self("kernels.cut")
    for kind in ("mem", "sep", "opt", "val"):
        calls_and_self(f"bodies.{kind}")
    calls_and_self("geometry.as_vector")
    out["core.ledger.records"] = t.metric("core.ledger", "calls")
    out["core.rng.generators"] = t.metric("core.rng", "calls")
    out["core.rng.self_ms"] = t.metric("core.rng", "self_ms")
    calls_and_self("height.alpha")
    alpha = t.metric("height.alpha", "calls")
    out["height.alpha.fast_frac"] = c.get("height.alpha.fast", 0) / alpha if alpha else 0.0
    calls_and_self("subgrad.estimate")
    calls_and_self("separation.query")
    for branch in ("inside", "far", "height"):
        out[f"separation.branch.{branch}"] = c.get(f"separation.branch.{branch}", 0)
    out["separation.retries"] = c.get("separation.retries", 0)
    queries = t.metric("separation.query", "calls")
    out["separation.mem_per_query"] = c.get("separation.mem", 0) / queries if queries else 0.0
    calls_and_self("ellipsoid.optimize")
    out["ellipsoid.optimize.sep_ms"] = c.get("ellipsoid.optimize.sep_ns", 0) / 1e6
    calls_and_self("ellipsoid.cut")
    calls_and_self("ellipsoid.log_volume")
    opts = t.metric("ellipsoid.optimize", "calls")
    out["ellipsoid.cuts_per_opt"] = t.metric("ellipsoid.cut", "calls") / opts if opts else 0.0
    for part in ("epigraph_mem", "support_eval", "val_bisect", "epigraph_grad"):
        calls_and_self(f"reductions.{part}")
    return {name: value if name in RATIOS else value / answers for name, value in out.items()}
