import csv
import json
import math
import warnings

import numpy as np
import pytest

from orc import experiments
from orc.bodies import BoxBody
from orc.cli import main
from orc.core import OptimizationAnswer
from orc.experiments import CSV_COLUMNS, evaluate_log_factor
from orc.geometry import unit


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


def test_pool_size_is_capped_by_trials_and_cpus(monkeypatch):
    for cpus, jobs, trials, workers in [(2, 4, 24, 2), (8, 4, 24, 4), (8, 64, 3, 3),
                                        (None, 4, 24, 1), (16, 1, 24, 1), (4, 4, 0, 1)]:
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
        assert experiments._pool_size(jobs, trials) == workers


def test_opt_grade_is_two_sided():
    n, eps = 3, 0.01
    box = BoxBody(np.zeros(n), 1.0)
    c = unit(np.ones(n))
    corner = np.ones(n)

    def stub_opt(point):
        return lambda c, delta: OptimizationAnswer(point)

    outcome, gap = experiments._grade_opt(box, stub_opt(10.0 * corner)(c, eps), c, eps)
    assert outcome == "violated" and gap < 0.0
    assert experiments._grade_opt(box, stub_opt(corner)(c, eps), c, eps) == ("sound", 0.0)
    assert experiments._grade_opt(box, stub_opt(0.5 * corner)(c, eps), c, eps)[0] == "violated"


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


def test_validate_config_rejects_sep_delta_exponent_override(tmp_path, capsys):
    # the optimizer's SEP precision exponent is fixed at 3; no chain reads it
    cfg = _config(chain="opt_from_sep", overrides={"sep_delta_exponent": 3})
    path = _write(tmp_path, cfg)
    assert main(["validate-config", path]) == 2
    assert main(["run", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("key, template", [
    pytest.param("body", {"kind": "dodecahedron"}, id="unknown-body-kind"),
    pytest.param("body", {"kind": "ball", "radius": -1}, id="negative-radius"),
    pytest.param("body", {"kind": "box", "radius": 0}, id="zero-radius"),
    pytest.param("body", {"kind": "box", "side": 1.0}, id="unknown-body-key"),
    pytest.param("body", {"kind": "simplex", "scale": "1"}, id="string-scale"),
    pytest.param("body", {"kind": "random_hpolytope", "extra_facets": -1},
                 id="negative-extra-facets"),
    pytest.param("body", {"kind": "random_hpolytope", "extra_facets": 300},
                 id="too-many-facets"),
    pytest.param("body", {"kind": "random_hpolytope", "jitter": None},
                 id="null-jitter"),
    pytest.param("body", {"kind": "ellipsoid", "axes": [1.0, 2.0]},
                 id="axes-wrong-length"),
    pytest.param("body", {"kind": "ellipsoid", "axes": [1.0, 0.0, 2.0]},
                 id="zero-axis"),
    pytest.param("function", {"kind": "norm", "nope": 1},
                 id="unknown-function-key"),
    pytest.param("function", {"kind": "ball"}, id="unknown-function-kind"),
])
def test_bad_template_exits_2_from_validate_and_run(tmp_path, key, template):
    # dims [3, 3]: the axes length check applies to every entry of dims
    cfg = _config(dims=[3, 3])
    del cfg["body"]
    cfg[key] = template
    if key == "function":
        cfg["chain"] = "eval_from_mem_epigraph"
    path = _write(tmp_path, cfg)
    assert main(["validate-config", path]) == 2
    assert main(["run", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("template", [
    {"kind": "ball", "radius": 2},
    {"kind": "box", "radius": 0.5},
    {"kind": "simplex", "scale": 3.0},
    {"kind": "random_hpolytope", "extra_facets": 0, "jitter": 0.1},
    {"kind": "ellipsoid", "axes": [1.0, 0.25, 4]},
])
def test_template_keys_the_body_reads_are_accepted(tmp_path, template):
    path = _write(tmp_path, _config(dims=[3], body=template))
    assert main(["validate-config", path]) == 0


def test_run_rejects_jobs_below_one(tmp_path):
    path = _write(tmp_path, _config())
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--out", str(tmp_path), "--jobs", "0"])
    assert exc.value.code == 2


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


def test_fit_scaling_zero_mean_column_exits_1(tmp_path, capsys):
    # an opt_from_sep CSV has mem_calls 0 in every row: log(0) is not a fit
    p = tmp_path / "zero.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for n in (2, 4, 8, 16):
            w.writerow(["s", "opt_from_sep", n, 1e-3, 1, 0, "sound", "0.001",
                        0, 10 * n, 0, 0, ""])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit-scaling", str(p), "--x", "n", "--y", "mem_calls"]) == 1
    captured = capsys.readouterr()
    assert "mem_calls" in captured.err
    assert "nan" not in captured.out


def test_missing_config_file_exits_2():
    assert main(["run", "/nonexistent/config.json"]) == 2


@pytest.mark.parametrize("retries", ["x", -1, True, 1.5, None])
def test_bad_retries_override_exits_2_from_validate_and_run(tmp_path, retries):
    # a bad count used to validate, then grade every trial error:...
    cfg = _config(dims=[4], body={"kind": "simplex"}, overrides={"retries": retries})
    path = _write(tmp_path, cfg)
    assert main(["validate-config", path]) == 2
    assert main(["run", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("retries", [0, 5])
def test_retries_override_accepts_non_negative_ints(tmp_path, retries):
    cfg = _config(overrides={"retries": retries})
    assert main(["validate-config", _write(tmp_path, cfg)]) == 0
