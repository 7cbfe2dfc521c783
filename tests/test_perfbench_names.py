"""The library names the benchmark harness in `perfbench/` reads.

The harness imports `orc` by name and patches the functions listed in
`spans.TARGETS`.  Deleting one of them breaks the benchmark run, so this
test fails first.  Each case kind's calls into the library (`SepFromMem`
with `rho`, `ellipsoid.optimize_linear`, and the epigraph chains with
`sep_eps` and `rho`) are asked once here too, plain and under the
traced run's patches (`perfbench/run.py --trace 1`).  It only reads
`perfbench/`.
"""

import importlib
from pathlib import Path

from orc import kernels

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_imports_and_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    spans = importlib.import_module("perfbench.spans")
    assert set(workloads.WORKLOADS) == {"sep_mem", "opt_sep", "web"}
    missing = [(name, attr) for name, owner, attr, _ in spans.TARGETS
               if not hasattr(owner, attr)]
    assert not missing
    assert hasattr(kernels, "NUMBA_ENABLED")


def _first_cases(workloads):
    """The first case of each case kind over the three workloads, at seed 1."""
    firsts = {}
    for workload in workloads.WORKLOADS.values():
        for case in workload.build(1).cases:
            firsts.setdefault(type(case).__name__, case)
    return firsts


def _reply(reply):
    """What a caller sees of a reply, down to the bytes."""
    if isinstance(reply, Exception):
        return f"{type(reply).__name__}: {reply}"
    if hasattr(reply, "halfspace"):
        h = reply.halfspace
        return None if h is None else (h.normal.tobytes(), h.anchor.tobytes(), h.slack)
    return reply.maximizer.tobytes()


def test_the_first_case_of_each_kind_answers_soundly(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    firsts = _first_cases(workloads)
    assert set(firsts) == {"SepMemCase", "OptSepCase", "SepFromOptCase", "OptFromValCase"}
    for name, case in firsts.items():
        reply = case.ask().reply
        assert not isinstance(reply, Exception), (name, case.label, reply)
        assert case.grade(reply) == "sound", (name, case.label)


def test_the_traced_run_answers_each_first_case_as_the_plain_run(monkeypatch):
    # the traced benchmark patches library functions by name and wraps
    # the closures of the factories it names; every reply and query count
    # must be the plain run's
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    spans = importlib.import_module("perfbench.spans")
    firsts = _first_cases(workloads)
    plain = {name: case.ask() for name, case in firsts.items()}
    tracer = spans.Tracer(record_cap=1000)
    with spans.instrument(tracer):
        traced = {name: tracer.answer(case.ask) for name, case in firsts.items()}
    for name, result in plain.items():
        assert not isinstance(traced[name].reply, Exception), (name, traced[name].reply)
        assert _reply(traced[name].reply) == _reply(result.reply), name
        assert traced[name].counts == result.counts, name
    assert tracer.metric(spans.ROOT, "calls") == len(firsts)
