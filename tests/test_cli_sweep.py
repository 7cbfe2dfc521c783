"""The CLI sweep: each chain, on the bodies and functions that reach its
distinct code paths, validates and writes the same CSV at `--jobs 1`
and `--jobs 2`, and seven of the configs grade every trial sound.

Each config is driven through `orc.cli.main` as `orc validate-config`
and `orc run --no-timing` are from a shell, and its experiment name is
the stem of its CSV.
"""

import json

import pytest

from orc.cli import main
from orc.core import EVAL
from orc.experiments import CHAINS


def _config(experiment, chain, template, dims, eps, seeds=(1, 2), trials=2):
    role = "function" if CHAINS[chain].kind == EVAL else "body"
    return {"experiment": experiment, "chain": chain, role: template, "dims": dims,
            "eps": [eps], "seeds": list(seeds), "trials": trials}


SWEEP = [
    # the analytic-centre engine stopped at its first violation witness,
    # on the simplex off the origin and the box at it
    _config("sep_from_opt", "sep_from_opt", {"kind": "simplex"}, [2, 3], 0.02),
    _config("sep_from_opt_box", "sep_from_opt", {"kind": "box"}, [2, 3], 0.02),
    # the ellipsoid engine over exact SEP, whose cut updates its factor in place
    _config("opt_from_sep", "opt_from_sep", {"kind": "box"}, [2, 4], 0.001),
    # the simplex sits off the origin with R != 1, so the height oracle
    # maps its bisection points into the body's frame
    _config("opt_from_mem", "opt_from_mem", {"kind": "simplex"}, [2, 3], 0.01),
    # threshold bisection over exact VIOL, on ellipsoids whose axes are
    # drawn from each trial's seed path
    _config("opt_from_viol", "opt_from_viol", {"kind": "ellipsoid"}, [2, 3], 0.001),
    # one VAL query per epigraph containment test, on the box at the
    # origin and on the simplex off it
    _config("opt_from_val_box", "opt_from_val", {"kind": "box"}, [2, 3], 0.01),
    _config("opt_from_val_simplex", "opt_from_val", {"kind": "simplex"}, [2, 3], 0.01),
    # the VAL oracle of a polytope, answered by HPolytope's stacked support
    _config("opt_from_val_random_hpolytope", "opt_from_val", {"kind": "random_hpolytope"},
            [2, 3], 0.01),
    # the same chain at eps 1e-3, where its inner SEP precision must
    # follow eps (reductions.inner_sep_eps)
    _config("opt_from_val_fine_box", "opt_from_val", {"kind": "box"}, [2, 3], 0.001,
            seeds=range(1, 21), trials=1),
    _config("opt_from_val_fine_simplex", "opt_from_val", {"kind": "simplex"}, [2, 3], 0.001,
            seeds=range(1, 21), trials=1),
    # the height oracle bisecting in lockstep over exact MEM, on a
    # polytope off the origin's symmetry
    _config("sep_from_mem", "sep_from_mem", {"kind": "random_hpolytope"}, [2, 3], 0.0001),
    # the same chain on the ellipsoid and the simplex, whose exact MEM of
    # the query point is BodySpec.contains, derived from separate
    _config("sep_from_mem_ellipsoid", "sep_from_mem", {"kind": "ellipsoid"}, [2, 3], 0.0001),
    _config("sep_from_mem_simplex", "sep_from_mem", {"kind": "simplex"}, [2, 3], 0.0001),
    # the theoretical slack, derived once when SepFromMem is built
    _config("sep_from_mem_theoretical", "sep_from_mem_theoretical", {"kind": "simplex"},
            [2, 3], 0.0001),
    # a plain f, asked one point at a time through the epigraph's MEM
    _config("eval_from_mem_epigraph", "eval_from_mem_epigraph", {"kind": "random_linear"},
            [2, 3], 0.001),
    # f = ||x|| and ||x||^2 reach 0, where the bisection down the t axis
    # runs to the t = 0 end of its bracket
    _config("eval_from_mem_epigraph_norm", "eval_from_mem_epigraph", {"kind": "norm"},
            [2, 3], 0.001),
    _config("eval_from_mem_epigraph_quadratic_norm", "eval_from_mem_epigraph",
            {"kind": "quadratic_norm"}, [2, 3], 0.001),
]

#: the configs that must grade every trial sound
SOUND = {"sep_from_opt", "sep_from_opt_box", "opt_from_val_fine_box",
         "opt_from_val_fine_simplex", "eval_from_mem_epigraph",
         "eval_from_mem_epigraph_norm", "eval_from_mem_epigraph_quadratic_norm"}


@pytest.mark.parametrize("config", SWEEP, ids=lambda config: config["experiment"])
def test_the_config_validates_and_writes_one_csv_at_jobs_1_and_2(tmp_path, config):
    name = config["experiment"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    assert main(["validate-config", str(path)]) == 0
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", str(path), "--out", str(out), "--no-timing", "--jobs", jobs]) == 0
    csv = (tmp_path / "jobs1" / f"{name}.csv").read_bytes()
    assert csv == (tmp_path / "jobs2" / f"{name}.csv").read_bytes()
    if name in SOUND:
        summary = json.loads((tmp_path / "jobs1" / f"{name}.summary.json").read_text())
        assert set(summary["outcomes"]) == {"sound"}, summary["outcomes"]


def test_the_sweep_names_each_chain_and_each_sound_config():
    # a chain added to CHAINS without a sweep config fails here
    names = [config["experiment"] for config in SWEEP]
    assert len(names) == len(set(names)) == 17
    assert SOUND <= set(names)
    assert {config["chain"] for config in SWEEP} == set(CHAINS)
