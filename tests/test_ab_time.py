"""`tools/ab_time.py`: two checkouts' answers timed pair by pair in one process."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from orc.core import SEP_INSIDE

ROOT = Path(__file__).resolve().parent.parent


def _tool(monkeypatch):
    # the tool imports pool_digest from its own directory
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _web_lines(monkeypatch, capsys, *args):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    tool = _tool(monkeypatch)
    assert tool.main(["--workload", "web", "--base", str(ROOT), *args]) == 0
    return capsys.readouterr().out.splitlines()


def test_web_against_this_checkout_prints_a_line_per_label_and_a_total(monkeypatch, capsys):
    import orc

    header, *rows, total = _web_lines(monkeypatch, capsys)
    # the caller's own `orc` keeps its name
    import orc as again
    assert again is orc
    assert header.split() == ["label", "pairs", "base_ms", "this_ms", "ratio"]
    labels = [row.split()[0] for row in rows]
    assert labels == sorted(labels) and {label.split("-")[0] for label in labels} == {
        "opt_from_val", "sep_from_opt"}
    name, pairs, base_ms, this_ms, ratio = total.split()
    assert name == "total" and int(pairs) == sum(int(row.split()[1]) for row in rows)
    assert float(base_ms) > 0.0 and float(this_ms) > 0.0 and float(ratio) > 0.0


class _Case:
    def __init__(self, label, reply, counts):
        self.label, self.reply, self.counts = label, reply, counts

    def ask(self):
        return self


def test_a_pair_whose_replies_differ_stops_the_run(monkeypatch):
    tool = _tool(monkeypatch)
    same = [_Case("a", SEP_INSIDE, (3,))]
    assert [label for label, _, _ in tool.ab_pairs(same, same)] == ["a"]
    with pytest.raises(SystemExit, match="replies differ"):
        list(tool.ab_pairs(same, [_Case("a", SEP_INSIDE, (4,))]))
    with pytest.raises(SystemExit, match="different pools"):
        list(tool.ab_pairs(same, [_Case("b", SEP_INSIDE, (3,))]))


def test_passes_answer_the_pools_that_many_times(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    pool = [_Case("a", SEP_INSIDE, (3,)), _Case("b", SEP_INSIDE, (5,))]
    assert [label for label, _, _ in tool.ab_passes(pool, pool, 3)] == ["a", "b"] * 3
    once = {row.split()[0]: int(row.split()[1]) for row in _web_lines(monkeypatch, capsys)[1:]}
    twice = {row.split()[0]: int(row.split()[1])
             for row in _web_lines(monkeypatch, capsys, "--passes", "2")[1:]}
    assert twice == {label: 2 * pairs for label, pairs in once.items()}
    with pytest.raises(SystemExit):
        tool.main(["--workload", "web", "--base", str(ROOT), "--passes", "0"])


def test_setup_against_this_checkout_prints_one_setup_line(monkeypatch, capsys):
    header, line = _web_lines(monkeypatch, capsys, "--setup", "--passes", "3")
    assert header.split() == ["label", "pairs", "base_ms", "this_ms", "ratio"]
    name, pairs, base_ms, this_ms, ratio = line.split()
    assert (name, pairs) == ("setup", "3")
    assert float(base_ms) > 0.0 and float(this_ms) > 0.0 and float(ratio) > 0.0


def test_setup_stops_on_a_pool_whose_bodies_differ(monkeypatch):
    tool = _tool(monkeypatch)
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    sep_mem = workloads.WORKLOADS["sep_mem"]
    base_cases, cases = sep_mem.build(1).cases, sep_mem.build(1).cases
    tool.same_inputs(base_cases, cases)
    polytope = next(case.body for case in cases if case.label == "hpoly-32")
    polytope.vertices = polytope.vertices.copy()
    polytope.vertices[0, 0] = np.nextafter(polytope.vertices[0, 0], np.inf)
    with pytest.raises(SystemExit, match=r"input \d+ \(hpoly-32\): the inputs differ"):
        tool.same_inputs(base_cases, cases)
    with pytest.raises(SystemExit, match="different pools"):
        tool.same_inputs(base_cases, cases[1:])
