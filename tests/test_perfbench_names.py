"""The library names the benchmark harness in `perfbench/` reads.

The harness imports `orc` by name and patches the functions listed in
`spans.TARGETS`.  Deleting one of them breaks the benchmark run, so this
test fails first.  Each case kind's calls into the library (`SepFromMem`
with `rho`, `ellipsoid.optimize_linear`, and the epigraph chains with
`sep_eps` and `rho`) are asked once here too.  It only reads
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


def test_the_first_case_of_each_kind_answers_soundly(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    firsts = {}
    for workload in workloads.WORKLOADS.values():
        for case in workload.build(1).cases:
            firsts.setdefault(type(case).__name__, case)
    assert set(firsts) == {"SepMemCase", "OptSepCase", "SepFromOptCase", "OptFromValCase"}
    for name, case in firsts.items():
        reply = case.ask().reply
        assert not isinstance(reply, Exception), (name, case.label, reply)
        assert case.grade(reply) == "sound", (name, case.label)
