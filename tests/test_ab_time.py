"""`tools/ab_time.py`: two checkouts' answers timed pair by pair in one process."""

import importlib.util
from pathlib import Path

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


def test_web_against_this_checkout_prints_a_line_per_label_and_a_total(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import orc

    tool = _tool(monkeypatch)
    assert tool.main(["--workload", "web", "--base", str(ROOT)]) == 0
    # the caller's own `orc` keeps its name
    import orc as again
    assert again is orc
    header, *rows, total = capsys.readouterr().out.splitlines()
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
