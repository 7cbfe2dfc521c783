"""`tools/pool_digest.py`: one deterministic line per benchmark input."""

import importlib
import importlib.util
import itertools
from pathlib import Path

import numpy as np

from orc.core import OptimizationAnswer, SeparationAnswer
from orc.geometry import HalfSpace

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("pool_digest", ROOT / "tools" / "pool_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_name_outcome_counts_and_reply(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")
    tool = _tool()
    first = list(itertools.islice(tool.digest_lines(workloads.WORKLOADS["web"], 1), 2))
    again = list(itertools.islice(tool.digest_lines(workloads.WORKLOADS["web"], 1), 2))
    assert first == again
    index, label, outcome, val, mem, sep, sha = first[0].split()
    assert (index, label, outcome) == ("0", "opt_from_val-box-2", "sound")
    assert [kv.split("=")[0] for kv in (val, mem, sep)] == ["VAL", "MEM", "SEP"]
    assert len(sha) == 64


def test_reply_bytes_tell_every_reply_kind_apart():
    tool = _tool()
    point = np.array([0.5, -0.25])
    replies = [ValueError("x"), SeparationAnswer(),
               SeparationAnswer(HalfSpace(np.array([1.0, 0.0]), point, 0.0)),
               SeparationAnswer(HalfSpace(np.array([1.0, 0.0]), point, 1e-3)),
               OptimizationAnswer(), OptimizationAnswer(point)]
    assert len({tool.reply_bytes(reply) for reply in replies}) == len(replies)
