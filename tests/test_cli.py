import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from orc import bodies, cli, experiments
from orc.bodies import BoxBody
from orc.cli import main
from orc.core import EVAL, VAL, OptimizationAnswer
from orc.experiments import CSV_COLUMNS, evaluate_log_factor
from orc.geometry import unit


def _config(**fields):
    cfg = {
        "experiment": "cli-test",
        "chain": "sep_from_mem",
        "body": {"kind": "ball"},
        "dims": [2, 3],
        "eps": [1e-4],
        "seeds": [1, 2],
        "trials": 2,
    }
    cfg.update(fields)
    return cfg


def _chain_config(chain, **fields):
    """`_config` for `chain`, with a norm "function" template for an EVAL chain."""
    cfg = _config(chain=chain, **fields)
    if experiments.CHAINS[chain].kind == EVAL:
        cfg["function"] = {"kind": "norm"}
        del cfg["body"]
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_produces_csv_and_summary(tmp_path):
    # sep_from_mem's rows carry no gap; on opt_from_viol over the ball
    # the gap of largest magnitude is negative (-2^-52), and max_gap used
    # to be the signed maximum
    for cfg in (_config(), _config(experiment="gaps", chain="opt_from_viol",
                                   body={"kind": "ball"}, eps=[0.01])):
        code = main(["run", _write(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = _read_rows(tmp_path / f"{cfg['experiment']}.csv")
        assert list(rows[0].keys()) == CSV_COLUMNS
        # dims x seeds x trials rows
        assert len(rows) == 2 * 2 * 2
        summary = json.loads((tmp_path / f"{cfg['experiment']}.summary.json").read_text())
        assert sum(summary["outcomes"].values()) == len(rows)
        assert summary["total_calls"] == {
            kind: sum(int(r[f"{kind}_calls"]) for r in rows)
            for kind in ("mem", "sep", "eval", "opt")}
        gaps = [abs(float(r["gap"])) for r in rows if r["gap"]]
        assert summary["max_gap"] == (pytest.approx(max(gaps), rel=1e-11) if gaps else None)
    assert len(gaps) == 8 and summary["max_gap"] > max(float(r["gap"]) for r in rows)


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


@pytest.mark.parametrize("chain, overrides", [
    ("sep_from_mem", {"retries": 0}), ("opt_from_mem", {"retries": 0}),
    ("sep_from_mem", {}), ("sep_from_mem", {"r1": 0.1}),
    ("opt_from_sep", {"sep_delta_exponent": 3})])
def test_a_config_carrying_overrides_exits_2_from_validate_and_run(
        tmp_path, capsys, chain, overrides):
    # every chain runs separation.RETRIES: the config has no overrides
    # object, so one, even empty, is an unknown key and not silently dropped
    path = _write(tmp_path, _chain_config(chain, overrides=overrides))
    assert main(["validate-config", path]) == 2
    assert "overrides" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


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


@pytest.mark.parametrize("chain, radius", [("sep_from_mem", 100), ("opt_from_mem", 1000000)])
def test_separator_precision_past_the_body_exits_2_from_validate_and_run(
        tmp_path, capsys, chain, radius):
    # the runner's SepFromMem asks MEM at precision eps*R >= 1/2 here (at
    # reductions.inner_sep_eps(eps) = eps * 1e-4 for opt_from_mem): this
    # used to validate, and then every trial was graded error:ValueError
    path = _write(tmp_path, _config(chain=chain, body={"kind": "ball", "radius": radius},
                                    eps=[0.01]))
    assert main(["validate-config", path]) == 2
    assert "eps*R" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


def test_separator_precision_past_the_estimate_exits_2_from_validate_and_run(tmp_path, capsys):
    # past eps = 3/16 SepFromMem's clamped r1 lies below the estimator's
    # r2: this used to validate, and then every trial that reached the
    # height estimate was graded error:ValueError
    path = _write(tmp_path, _config(body={"kind": "box"}, eps=[0.2], seeds=[1, 2, 3]))
    assert main(["validate-config", path]) == 2
    assert "r2 <= r1" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


@pytest.mark.parametrize("chain", ["sep_from_mem", "opt_from_mem"])
def test_separator_precision_within_the_body_validates(tmp_path, chain):
    path = _write(tmp_path, _config(chain=chain, body={"kind": "ball", "radius": 60},
                                    eps=[1e-3]))
    assert main(["validate-config", path]) == 0


def test_run_rejects_jobs_below_one(tmp_path):
    path = _write(tmp_path, _config())
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--out", str(tmp_path), "--jobs", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("chain", sorted(experiments.CHAINS))
def test_validate_config_builds_each_chain_once_per_n_and_eps_as_its_trial_does(
        tmp_path, monkeypatch, capsys, chain):
    # validate-config used to build only sep_from_mem and opt_from_mem
    record = experiments.CHAINS[chain]
    built = []

    def build(ctx):
        built.append((ctx.n, ctx.eps))
        return record.build(ctx)

    monkeypatch.setitem(experiments.CHAINS, chain, dataclasses.replace(record, build=build))
    cfg = _chain_config(chain, dims=[2, 3], eps=[0.01, 0.02], seeds=[1], trials=1)
    assert main(["validate-config", _write(tmp_path, cfg)]) == 0
    assert built == [(2, 0.01), (2, 0.02), (3, 0.01), (3, 0.02)]
    valid = experiments.validate_config(cfg)
    built.clear()
    experiments.run_trial(valid, 3, 0.02, 1, 0)
    assert built == [(3, 0.02)]
    capsys.readouterr()
    assert main(["list-chains"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(maxsplit=1)[1] for line in lines
            if line.split()[0] == chain] == [record.description]


def test_list_chains_names_all_chains(capsys):
    assert main(["list-chains"]) == 0
    out = capsys.readouterr().out
    for chain in ("sep_from_mem", "sep_from_mem_theoretical", "opt_from_sep",
                  "opt_from_mem", "opt_from_viol", "opt_from_val", "sep_from_opt",
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


@pytest.mark.parametrize("chain", sorted(experiments.CHAINS))
def test_a_config_carrying_slack_mode_exits_2_from_validate_and_run(tmp_path, capsys, chain):
    # the theoretical slack is the chain sep_from_mem_theoretical, so
    # slack_mode is an unknown key on every chain, whatever its value
    for slack_mode in ("theoretical", "anchored"):
        path = _write(tmp_path, _chain_config(chain, slack_mode=slack_mode))
        assert main(["validate-config", path]) == 2
        assert "slack_mode" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "cli-test.csv").exists()


def test_sep_from_mem_theoretical_validates_and_cuts_with_a_positive_slack(tmp_path):
    # the same cut as sep_from_mem's, on the same streams, moved out by
    # the theoretical slack term
    cfg = _config(chain="sep_from_mem_theoretical", body={"kind": "simplex"})
    assert main(["validate-config", _write(tmp_path, cfg)]) == 0
    ctx = experiments._trial_context(experiments.validate_config(cfg), 2, 1e-4, 1, 0)
    direction = unit(np.array([1.0, 1.0]))
    y = ctx.body.geometry.center + 1.01 * ctx.body.radial_scale(direction) * direction
    cuts = {chain: experiments.CHAINS[chain].build(ctx)(y, 1e-4).halfspace
            for chain in ("sep_from_mem_theoretical", "sep_from_mem")}
    assert cuts["sep_from_mem_theoretical"].slack > 0.0
    assert cuts["sep_from_mem"].slack == 0.0
    np.testing.assert_array_equal(cuts["sep_from_mem_theoretical"].normal,
                                  cuts["sep_from_mem"].normal)


@pytest.mark.parametrize("chain", sorted(experiments.CHAINS))
def test_eps_of_one_half_exits_2_from_validate_and_run(tmp_path, capsys, chain):
    # eps in [1/2, 1) used to validate, and then every trial of five of
    # these chains was graded error:ValueError by core.check_precision
    path = _write(tmp_path, _chain_config(chain, eps=[1e-3, 0.5]))
    assert main(["validate-config", path]) == 2
    assert "(0, 1/2)" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


def test_orc_run_validates_its_config_once(tmp_path, monkeypatch):
    # run validated once in _load_config and again in run_experiment,
    # building each n's body and chain both times
    calls = []
    validate = experiments.validate_config

    def spy(config):
        calls.append(config)
        return validate(config)

    monkeypatch.setattr(experiments, "validate_config", spy)
    monkeypatch.setattr(cli, "validate_config", spy)
    assert main(["run", _write(tmp_path, _config()), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    # a library caller's config is still validated
    with pytest.raises(experiments.ConfigError):
        experiments.run_experiment(_config(eps=[0.5]))
    assert len(calls) == 2


def test_a_chain_that_raises_still_reports_its_queries(monkeypatch):
    # a VAL that answers for the box along unit directions and for half
    # of it past them makes the polar point read inside, and the trial
    # raises after its VAL, MEM and SEP queries; the chain's ledgers used
    # to be merged only after an answer, so its row read 0 queries
    exact = bodies.ExactValidity

    def inconsistent(body):
        val = exact(body)

        def answer(c, gamma, delta):
            half = np.linalg.norm(c) > 1.0 + 1e-12
            return val(np.asarray(c) * (0.5 if half else 1.0), gamma, delta)

        answer.kind = VAL
        return answer

    monkeypatch.setattr(bodies, "ExactValidity", inconsistent)
    cfg = experiments.validate_config(_config(chain="opt_from_val", body={"kind": "box"},
                                              dims=[2], eps=[1e-3], seeds=[28], trials=1))
    record = experiments.run_trial(cfg, 2, 1e-3, 28, 0)
    assert record.outcome == "error:OracleInconsistency"
    assert min(record.eval_calls, record.mem_calls, record.sep_calls) > 0


@pytest.mark.parametrize("field, value", [
    ("dims", [True]), ("dims", [2, True]), ("seeds", [False]), ("seeds", [1, True]),
    ("trials", True)])
def test_boolean_counts_exit_2_from_validate_and_run(tmp_path, field, value):
    # JSON true/false load as bool, an int subclass: "dims": [true] used to
    # validate and then fail the run, and "seeds": [false] wrote False
    # into the CSV's seed column
    path = _write(tmp_path, _config(**{field: value}))
    assert main(["validate-config", path]) == 2
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


@pytest.mark.parametrize("body", [{"kind": "ball", "radius": 10 ** 400},
                                  {"kind": "simplex", "scale": 10 ** 400},
                                  {"kind": "random_hpolytope", "jitter": 10 ** 400},
                                  {"kind": "ellipsoid", "axes": [10 ** 400, 1.0]}])
def test_an_integer_past_the_float_range_exits_2(tmp_path, capsys, body):
    # a 401-digit JSON integer is not a finite float: math.isfinite used
    # to raise OverflowError on it, and validate-config ended with exit 1
    path = _write(tmp_path, _config(body=body, dims=[2]))
    assert main(["validate-config", path]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


@pytest.mark.parametrize("seeds", [[1, -1], [-1]])
def test_negative_seeds_exit_2_from_validate_and_run(tmp_path, capsys, seeds):
    # a negative seed used to validate, and then every trial with it was
    # graded error:ValueError by numpy's SeedSequence
    path = _write(tmp_path, _config(chain="opt_from_sep", body={"kind": "box"}, seeds=seeds))
    assert main(["validate-config", path]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "cli-test.csv").exists()


@pytest.mark.parametrize("name", ["../escaped", "a/b", "..", ".hidden", "a,b", "", "a b",
                                  "a" * 300])
def test_an_experiment_name_that_is_not_a_plain_file_stem_exits_2(tmp_path, name):
    # "../escaped" used to write escaped.csv outside --out, "a,b" wrote
    # rows with an extra field that fit-scaling then misread, and a
    # 300-character stem makes a file name past the 255-byte limit
    path = _write(tmp_path, _config(experiment=name))
    out = tmp_path / "out" / "inner"
    assert main(["validate-config", path]) == 2
    assert main(["run", path, "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]


def test_a_200_character_experiment_name_runs(tmp_path):
    path = _write(tmp_path, _config(experiment="a" * 200))
    assert main(["validate-config", path]) == 0
    assert main(["run", path, "--out", str(tmp_path), "--no-timing"]) == 0
    assert (tmp_path / ("a" * 200 + ".summary.json")).exists()
