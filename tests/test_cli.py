import csv
import json
import math

import pytest

from orc.cli import main
from orc.experiments import CSV_COLUMNS, evaluate_log_factor


def _config(**overrides):
    cfg = {
        "experiment": "cli-test",
        "chain": "sep_from_mem",
        "body": {"kind": "ball"},
        "dims": [2, 3],
        "eps": [1e-4],
        "seeds": [1, 2],
        "trials": 2,
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_produces_csv_and_summary(tmp_path):
    cfg = _config()
    code = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 0
    rows = _read_rows(tmp_path / "cli-test.csv")
    assert list(rows[0].keys()) == CSV_COLUMNS
    # dims x seeds x trials rows
    assert len(rows) == 2 * 2 * 2
    summary = json.loads((tmp_path / "cli-test.summary.json").read_text())
    assert summary["outcomes"].get("sound", 0) + sum(
        v for k, v in summary["outcomes"].items()) >= len(rows)


def test_run_is_deterministic_without_timing(tmp_path):
    cfg = _config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    out1.mkdir(), out2.mkdir()
    path = _write(tmp_path, cfg)
    assert main(["run", path, "--out", str(out1), "--no-timing"]) == 0
    assert main(["run", path, "--out", str(out2), "--no-timing"]) == 0
    assert (out1 / "cli-test.csv").read_bytes() == \
        (out2 / "cli-test.csv").read_bytes()


def test_run_jobs_matches_sequential(tmp_path):
    cfg = _config(experiment="jobs-test")
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    out1.mkdir(), out2.mkdir()
    path = _write(tmp_path, cfg)
    assert main(["run", path, "--out", str(out1), "--no-timing"]) == 0
    assert main(["run", path, "--out", str(out2), "--no-timing",
                 "--jobs", "4"]) == 0
    assert (out1 / "jobs-test.csv").read_bytes() == \
        (out2 / "jobs-test.csv").read_bytes()


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2


def test_unknown_chain_exits_2(tmp_path):
    path = _write(tmp_path, _config(chain="no_such_chain"))
    assert main(["run", path]) == 2


def test_unknown_top_level_key_exits_2(tmp_path):
    path = _write(tmp_path, _config(bogus=1))
    assert main(["run", path]) == 2


def test_unknown_override_key_exits_2(tmp_path):
    path = _write(tmp_path, _config(overrides={"nope": 3}))
    assert main(["run", path]) == 2


def test_missing_required_key_exits_2(tmp_path):
    cfg = _config()
    del cfg["eps"]
    path = _write(tmp_path, cfg)
    assert main(["run", path]) == 2


def test_function_chain_requires_function_key(tmp_path):
    cfg = _config(chain="eval_from_mem_epigraph")
    del cfg["body"]
    cfg["function"] = {"kind": "quadratic_norm"}
    path = _write(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    # body key with a function chain is a schema error
    cfg_bad = _config(chain="eval_from_mem_epigraph")
    assert main(["run", _write(tmp_path, cfg_bad, "bad.json")]) == 2


def test_validate_config_subcommand(tmp_path, capsys):
    assert main(["validate-config", _write(tmp_path, _config())]) == 0
    assert main(["validate-config",
                 _write(tmp_path, _config(chain="zzz"), "z.json")]) == 2


def test_validate_config_rejects_r1_override(tmp_path, capsys):
    # no chain reads an "r1" override, so accepting it would be silent
    cfg = _config(overrides={"r1": 0.1})
    assert main(["validate-config", _write(tmp_path, cfg)]) == 2


def test_list_chains_names_all_chains(capsys):
    assert main(["list-chains"]) == 0
    out = capsys.readouterr().out
    for chain in ("sep_from_mem", "opt_from_sep", "opt_from_mem",
                  "opt_from_viol", "opt_from_val", "sep_from_opt",
                  "eval_from_mem_epigraph"):
        assert chain in out


def _write_scaling_csv(path, slope):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for n in (2, 4, 8, 16):
            for trial in range(3):
                mem = int(10.0 * n ** slope)
                w.writerow(["s", "sep_from_mem", n, 1e-4, 1, trial,
                            "sound", "", mem, 0, 0, 0, ""])


def test_fit_scaling_linear_synthetic(tmp_path, capsys):
    p = tmp_path / "lin.csv"
    _write_scaling_csv(p, 1.0)
    assert main(["fit-scaling", str(p), "--x", "n", "--y", "mem_calls"]) == 0
    out = capsys.readouterr().out
    assert "1.0000" in out


def test_fit_scaling_quadratic_synthetic(tmp_path, capsys):
    p = tmp_path / "quad.csv"
    _write_scaling_csv(p, 2.0)
    assert main(["fit-scaling", str(p), "--x", "n", "--y", "mem_calls"]) == 0
    assert "2.0000" in capsys.readouterr().out


def test_fit_scaling_log_factor(tmp_path, capsys):
    p = tmp_path / "logf.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        eps = 1e-4
        for n in (2, 4, 8, 16):
            mem = int(5.0 * n * math.log(1.0 / eps))
            w.writerow(["s", "sep_from_mem", n, eps, 1, 0,
                        "sound", "", mem, 0, 0, 0, ""])
    assert main(["fit-scaling", str(p), "--x", "n", "--y", "mem_calls",
                 "--log-factor", "log(1/eps)"]) == 0
    out = capsys.readouterr().out
    assert "1.00" in out


@pytest.mark.parametrize("expr, expected", [
    ("1", 1.0),
    ("log(1/eps)", math.log(1e4)),
    ("n**2*log(n/eps)", 16.0 * math.log(4e4)),
    ("-(1 - n)", 3.0),
])
def test_log_factor_accepts_arithmetic_and_log(expr, expected):
    assert evaluate_log_factor(expr, 4.0, 1e-4) == pytest.approx(expected)


@pytest.mark.parametrize("expr", [
    "().__class__.__base__.__subclasses__()",
    "n.real",
    "__import__('os')",
    "exp(n)",
    "log(n, 2)",
    "[n][0]",
    "'n'",
    "True",
    "(lambda: 1)()",
    "9**9**9",
    "log(-n)",
    "1/(n - 4)",
    "(-n)**0.5",
    "-n",
])
def test_log_factor_rejects_anything_else(expr):
    with pytest.raises(ValueError):
        evaluate_log_factor(expr, 4.0, 1e-4)


def test_fit_scaling_needs_enough_distinct_x(tmp_path):
    p = tmp_path / "short.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for n in (2, 4):
            w.writerow(["s", "c", n, 1e-4, 1, 0, "sound", "", 10, 0, 0, 0, ""])
    assert main(["fit-scaling", str(p), "--x", "n", "--y", "mem_calls"]) == 1


def test_missing_config_file_exits_2():
    assert main(["run", "/nonexistent/config.json"]) == 2
