"""Seeded experiment harness behind the command-line interface.

An experiment config names a reduction chain, a body (or function)
template, and grids of dimensions, precisions, and seeds.  Every trial
owns its own seed path and query ledger, runs the chain against the
exact analytic oracles, grades the answer (sound / violated / inside /
error:<kind>), and reports query counts.  Rows are ordered
deterministically by (n, eps, seed, trial), so identical configs yield
byte-identical CSV output (timing column aside).
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bodies
from .core import (EVAL, MEM, OPT, SEP, VAL, VIOL, QueryLedger, RandomStream,
                   wrap_with_ledger)
from .ellipsoid import OptimizerConfig, optimize_linear, opt_from_viol
from .geometry import unit
from .reductions import (EpigraphBody, eval_from_mem_epigraph, opt_from_val,
                         sep_from_opt)
from .separation import ANCHORED, THEORETICAL, SepFromMem

CSV_COLUMNS = ["experiment", "chain", "n", "eps", "seed", "trial", "outcome",
               "gap", "mem_calls", "sep_calls", "eval_calls", "opt_calls",
               "wall_ms"]

#: outside query points sit at this multiple of the body's radial scale
QUERY_DISTANCE_FACTOR = 1.5

SLACK_MODES = {"theoretical": THEORETICAL, "anchored": ANCHORED}

OVERRIDE_KEYS = {"retries"}

CONFIG_KEYS = {"experiment", "chain", "body", "function", "dims", "eps",
               "seeds", "trials", "slack_mode", "overrides"}

#: template kind -> the keys `make_body` / `make_function` read besides "kind"
BODY_KEYS = {"ball": {"radius"}, "box": {"radius"}, "simplex": {"scale"},
             "random_hpolytope": {"extra_facets", "jitter"},
             "ellipsoid": {"axes"}}
FUNCTION_KEYS = {"norm": set(), "random_linear": set(), "quadratic_norm": set()}


class ConfigError(ValueError):
    pass


@dataclass
class TrialRecord:
    experiment: str
    chain: str
    n: int
    eps: float
    seed: int
    trial: int
    outcome: str
    gap: float | None
    mem_calls: int
    sep_calls: int
    eval_calls: int
    opt_calls: int
    wall_ms: float

    def row(self, timing: bool = True) -> list[str]:
        gap = "" if self.gap is None else f"{self.gap:.12g}"
        wall = f"{self.wall_ms:.3f}" if timing else ""
        return [self.experiment, self.chain, str(self.n), f"{self.eps:g}",
                str(self.seed), str(self.trial), self.outcome, gap,
                str(self.mem_calls), str(self.sep_calls),
                str(self.eval_calls), str(self.opt_calls), wall]


# ---------------------------------------------------------------------------
# config validation

def validate_config(config: dict) -> dict:
    """Check the schema strictly and return the config with defaults filled."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("experiment", "chain"):
        if not isinstance(config.get(key), str) or not config.get(key):
            raise ConfigError(f"'{key}' must be a non-empty string")
    if ("body" in config) == ("function" in config):
        raise ConfigError("exactly one of 'body' or 'function' is required")
    template = config.get("body", config.get("function"))
    if not isinstance(template, dict) or "kind" not in template:
        raise ConfigError("'body'/'function' must be an object with a 'kind'")
    chain = config["chain"]
    if chain not in CHAINS:
        raise ConfigError(f"unknown chain {chain!r}; see `orc list-chains`")
    if CHAIN_INPUT[chain] not in config:
        raise ConfigError(
            f"chain {chain!r} needs a {CHAIN_INPUT[chain]!r} template")
    dims = config.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(n, int) and n >= 1 for n in dims)):
        raise ConfigError("'dims' must be a non-empty list of positive ints")
    _check_template(CHAIN_INPUT[chain], template, dims)
    eps_list = config.get("eps")
    if (not isinstance(eps_list, list) or not eps_list
            or not all(isinstance(e, (int, float)) and 0 < e < 1
                       for e in eps_list)):
        raise ConfigError("'eps' must be a non-empty list of floats in (0,1)")
    seeds = config.get("seeds")
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) for s in seeds)):
        raise ConfigError("'seeds' must be a non-empty list of ints")
    trials = config.get("trials")
    if not isinstance(trials, int) or trials < 1:
        raise ConfigError("'trials' must be a positive int")
    slack_mode = config.get("slack_mode", "anchored")
    if slack_mode not in SLACK_MODES:
        raise ConfigError("'slack_mode' must be 'theoretical' or 'anchored'")
    overrides = config.get("overrides", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'overrides' must be an object")
    unknown = set(overrides) - OVERRIDE_KEYS
    if unknown:
        raise ConfigError(f"unknown override keys: {sorted(unknown)}")
    retries = overrides.get("retries", 0)
    if isinstance(retries, bool) or not isinstance(retries, int) or retries < 0:
        raise ConfigError("'retries' must be a non-negative int")
    out = dict(config)
    out["slack_mode"] = slack_mode
    out["overrides"] = overrides
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_template(role: str, template: dict, dims: list) -> None:
    """The template's kind and keys against what `make_body` or
    `make_function` reads, with the values their constructors accept."""
    allowed = BODY_KEYS if role == "body" else FUNCTION_KEYS
    kind = template["kind"]
    if not isinstance(kind, str) or kind not in allowed:
        raise ConfigError(f"unknown {role} kind {kind!r}; "
                          f"expected one of {sorted(allowed)}")
    unknown = set(template) - allowed[kind] - {"kind"}
    if unknown:
        raise ConfigError(f"unknown keys for {role} kind {kind!r}: {sorted(unknown)}")
    for key in ("radius", "scale"):
        if key in template and not (_is_number(template[key]) and template[key] > 0):
            raise ConfigError(f"{kind} {key!r} must be a positive number")
    extra = template.get("extra_facets", 3)  # make_body's default
    if not (isinstance(extra, int) and not isinstance(extra, bool) and extra >= 0):
        raise ConfigError("'extra_facets' must be a non-negative int")
    if not _is_number(template.get("jitter", 0.0)):
        raise ConfigError("'jitter' must be a finite number")
    if kind == "random_hpolytope" and any(
            math.comb(n + 1 + extra, n) > bodies.HPolytope.MAX_SUBSETS
            for n in dims):
        raise ConfigError("too many facets for vertex enumeration; "
                          "lower 'extra_facets' or 'dims'")
    if "axes" in template:
        axes = template["axes"]
        if (not isinstance(axes, list)
                or not all(_is_number(a) and a > 0 for a in axes)):
            raise ConfigError("ellipsoid 'axes' must be a list of positive numbers")
        if any(len(axes) != n for n in dims):
            raise ConfigError(f"ellipsoid 'axes' has length {len(axes)}; "
                              f"every entry of 'dims' must equal it")


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# body / function templates

def make_body(template: dict, n: int, rng: RandomStream) -> bodies.BodySpec:
    kind = template["kind"]
    if kind == "ball":
        return bodies.Ball(np.zeros(n), float(template.get("radius", 1.0)))
    if kind == "box":
        return bodies.BoxBody(np.zeros(n), float(template.get("radius", 1.0)))
    if kind == "simplex":
        return bodies.Simplex(n, float(template.get("scale", 1.0)))
    if kind == "random_hpolytope":
        return bodies.random_hpolytope(
            n, rng, extra_facets=int(template.get("extra_facets", 3)),
            jitter=float(template.get("jitter", 0.15)))
    if kind == "ellipsoid":
        gen = rng.generator()
        axes = np.asarray(template.get(
            "axes", gen.uniform(0.5, 1.5, size=n) ** 2), dtype=np.float64)
        return bodies.Ellipsoid(np.zeros(n), np.diag(axes))
    raise ConfigError(f"unknown body kind {kind!r}")


def make_function(template: dict, n: int, rng: RandomStream):
    """An exact evaluation callable mapping the unit ball into [0, 1]."""
    kind = template["kind"]
    if kind == "norm":
        def f(x, delta):
            return float(np.linalg.norm(x))
    elif kind == "random_linear":
        a = unit(rng.generator().normal(size=n))

        def f(x, delta):
            return 0.5 + 0.5 * float(a @ x)
    elif kind == "quadratic_norm":
        def f(x, delta):
            return float(x @ x)
    else:
        raise ConfigError(f"unknown function kind {kind!r}")
    f.kind = EVAL
    return f


# ---------------------------------------------------------------------------
# chain runners: each takes the trial context and returns (outcome, gap)

def _outside_query(body: bodies.BodySpec, rng: RandomStream) -> np.ndarray:
    direction = unit(rng.generator().normal(size=body.dim))
    scale = body.radial_scale(direction)
    return body.geometry.center + QUERY_DISTANCE_FACTOR * scale * direction


def _grade_halfspace(body: bodies.BodySpec, answer) -> tuple[str, None]:
    if answer.halfspace is None:
        return "inside", None
    h = answer.halfspace
    sup, _ = body.support(h.normal)
    bound = float(h.normal @ h.anchor) + h.slack
    return ("sound" if sup <= bound + 1e-12 else "violated"), None


def _grade_opt(body: bodies.BodySpec, answer, c: np.ndarray,
               eps: float) -> tuple[str, float | None]:
    """Sound when the maximizer's objective is within tol of the support
    on both sides: a weak-OPT answer lies in B(K, delta), so it cannot
    beat the support by more than tol, and one far outside the body
    that does is violated."""
    if answer.empty_interior:
        return "error:empty_interior", None
    sup, _ = body.support(c)
    gap = sup - float(c @ answer.maximizer)
    tol = eps * float(np.linalg.norm(c)) * (1.0 + body.geometry.kappa)
    return ("sound" if abs(gap) <= tol else "violated"), gap


def _run_sep_from_mem(ctx) -> tuple[str, float | None]:
    body = ctx.body
    ledgered_mem = wrap_with_ledger(bodies.ExactMembership(body), ctx.ledger)
    sep = SepFromMem(ledgered_mem, body.geometry, ctx.rng.child("sep"),
                     eps=ctx.eps, rho=0.1, mode=ctx.slack_mode,
                     retries=ctx.overrides.get("retries", 3))
    sep = wrap_with_ledger(sep, ctx.ledger)
    x = _outside_query(body, ctx.rng.child("query"))
    return _grade_halfspace(body, sep(x, 0.01))


def _run_opt_from_sep(ctx) -> tuple[str, float | None]:
    body = ctx.body
    sep = wrap_with_ledger(bodies.ExactSeparation(body), ctx.ledger)
    cfg = OptimizerConfig(eps=ctx.eps)
    c = unit(ctx.rng.child("obj").generator().normal(size=body.dim))
    answer = optimize_linear(cfg, sep, body.geometry, c)
    return _grade_opt(body, answer, c, ctx.eps)


def _run_opt_from_mem(ctx) -> tuple[str, float | None]:
    body = ctx.body
    mem = wrap_with_ledger(bodies.ExactMembership(body), ctx.ledger)
    # inner estimator precision rides two decades below the target gap
    sep = SepFromMem(mem, body.geometry, ctx.rng.child("sep"),
                     eps=ctx.eps * 1e-2, rho=0.1, mode=ctx.slack_mode,
                     retries=ctx.overrides.get("retries", 3))
    sep = wrap_with_ledger(sep, ctx.ledger)
    cfg = OptimizerConfig(eps=ctx.eps)
    c = unit(ctx.rng.child("obj").generator().normal(size=body.dim))
    answer = optimize_linear(cfg, sep, body.geometry, c)
    return _grade_opt(body, answer, c, ctx.eps)


def _run_opt_from_viol(ctx) -> tuple[str, float | None]:
    body = ctx.body
    viol = wrap_with_ledger(bodies.ExactViolation(body), ctx.ledger)
    opt = wrap_with_ledger(opt_from_viol(viol, ctx.eps), ctx.ledger)
    c = unit(ctx.rng.child("obj").generator().normal(size=body.dim))
    answer = opt(c, ctx.eps)
    # the threshold bisection adds one eps of bracketing error on top of
    # the inner oracle's contract
    return _grade_opt(body, answer, c, 2.0 * ctx.eps)


def _run_opt_from_val(ctx) -> tuple[str, float | None]:
    body = ctx.body
    val = bodies.ExactValidity(body)
    opt = opt_from_val(val, body.geometry, ctx.rng.child("chain"),
                       eps=ctx.eps, sep_eps=1e-4, rho=0.1)
    c = unit(ctx.rng.child("obj").generator().normal(size=body.dim))
    answer = opt(c, ctx.eps)
    for name in ("val", "mem", "sep"):
        ctx.ledger.merge(getattr(opt.ledgers, name))
    return _grade_opt(body, answer, c, 3.0 * ctx.eps)


def _run_sep_from_opt(ctx) -> tuple[str, float | None]:
    body = ctx.body
    opt = bodies.ExactOptimization(body)
    sep = sep_from_opt(opt, body.geometry, ctx.rng.child("chain"),
                       eps=ctx.eps, sep_eps=1e-4, rho=0.1)
    x = _outside_query(body, ctx.rng.child("query"))
    answer = sep(x, ctx.eps)
    for name in ("opt", "mem", "sep"):
        ctx.ledger.merge(getattr(sep.ledgers, name))
    return _grade_halfspace(body, answer)


def _run_eval_from_mem_epigraph(ctx) -> tuple[str, float | None]:
    f = ctx.function
    eb = EpigraphBody(f, ctx.n)
    mem = wrap_with_ledger(eb.as_mem(), ctx.ledger)
    ev = wrap_with_ledger(eval_from_mem_epigraph(mem, ctx.n), ctx.ledger)
    gen = ctx.rng.child("query").generator()
    y = gen.normal(size=ctx.n)
    norm = float(np.linalg.norm(y))
    if norm > 1.0:
        y = y / (norm * 1.25)
    recovered = ev(y, ctx.eps)
    gap = abs(recovered - f(y, 0.0))
    return ("sound" if gap <= 2.0 * ctx.eps else "violated"), gap


CHAINS = {
    "sep_from_mem": _run_sep_from_mem,
    "opt_from_sep": _run_opt_from_sep,
    "opt_from_mem": _run_opt_from_mem,
    "opt_from_viol": _run_opt_from_viol,
    "opt_from_val": _run_opt_from_val,
    "sep_from_opt": _run_sep_from_opt,
    "eval_from_mem_epigraph": _run_eval_from_mem_epigraph,
}

#: which template each chain consumes
CHAIN_INPUT = {name: "function" if name == "eval_from_mem_epigraph" else "body"
               for name in CHAINS}

CHAIN_DESCRIPTIONS = {
    "sep_from_mem": "separation from membership via height-function subgradients",
    "opt_from_sep": "linear optimization from exact separation (central-cut ellipsoid)",
    "opt_from_mem": "linear optimization from membership (composition of the two above)",
    "opt_from_viol": "optimization from violation by threshold bisection",
    "opt_from_val": "optimization from validity via the support-function epigraph",
    "sep_from_opt": "separation from optimization via the support-function epigraph",
    "eval_from_mem_epigraph": "function evaluation from epigraph-body membership",
}


@dataclass
class _TrialContext:
    body: bodies.BodySpec | None
    function: object
    n: int
    eps: float
    rng: RandomStream
    ledger: QueryLedger
    slack_mode: str
    overrides: dict


def run_trial(config: dict, n: int, eps: float, seed: int,
              trial: int) -> TrialRecord:
    rng = RandomStream(seed).child(n, trial)
    ledger = QueryLedger()
    template = config.get("body", config.get("function"))
    body = function = None
    if "body" in config:
        body = make_body(template, n, rng.child("body"))
    else:
        function = make_function(template, n, rng.child("function"))
    ctx = _TrialContext(body=body, function=function, n=n, eps=eps, rng=rng,
                        ledger=ledger,
                        slack_mode=SLACK_MODES[config["slack_mode"]],
                        overrides=config["overrides"])
    start = time.perf_counter()
    try:
        outcome, gap = CHAINS[config["chain"]](ctx)
    except Exception as exc:  # graded, not fatal: errors are data
        outcome, gap = f"error:{type(exc).__name__}", None
    wall_ms = (time.perf_counter() - start) * 1e3
    totals = ledger.totals()
    return TrialRecord(
        experiment=config["experiment"], chain=config["chain"], n=n, eps=eps,
        seed=seed, trial=trial, outcome=outcome, gap=gap,
        mem_calls=totals.get(MEM, 0), sep_calls=totals.get(SEP, 0),
        eval_calls=totals.get(EVAL, 0) + totals.get(VAL, 0),
        opt_calls=totals.get(OPT, 0) + totals.get(VIOL, 0), wall_ms=wall_ms)


def _pool_size(jobs: int, trials: int) -> int:
    """Worker processes for `jobs`: no more than there are trials to run
    or CPUs to run them on."""
    return max(1, min(jobs, trials, os.cpu_count() or 1))


def run_experiment(config: dict, jobs: int = 1) -> list[TrialRecord]:
    """Every trial of the grid, in (n, eps, seed, trial) order.  With
    jobs > 1 the trials run in a pool of `_pool_size` spawned worker
    processes; each trial owns its seed path and ledger, so the records
    are the same as a sequential run's."""
    config = validate_config(config)
    cells = [(n, eps, seed, trial)
             for n in config["dims"] for eps in config["eps"]
             for seed in config["seeds"] for trial in range(config["trials"])]
    workers = _pool_size(jobs, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            records = list(pool.map(run_trial, itertools.repeat(config), *zip(*cells)))
    else:
        records = [run_trial(config, *cell) for cell in cells]
    records.sort(key=lambda r: (r.n, r.eps, r.seed, r.trial))
    return records


def write_csv(records: list[TrialRecord], path, timing: bool = True) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(r.row(timing)) for r in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def summarize(config: dict, records: list[TrialRecord]) -> dict:
    outcomes: dict[str, int] = {}
    for r in records:
        outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
    gaps = [r.gap for r in records if r.gap is not None]
    return {
        "experiment": config["experiment"],
        "chain": config["chain"],
        "config_hash": config_hash(config),
        "version": _version(),
        "rows": len(records),
        "outcomes": dict(sorted(outcomes.items())),
        "max_gap": max(gaps) if gaps else None,
        "total_calls": {
            "mem": sum(r.mem_calls for r in records),
            "sep": sum(r.sep_calls for r in records),
            "eval": sum(r.eval_calls for r in records),
            "opt": sum(r.opt_calls for r in records),
        },
    }


def _version() -> str:
    try:
        from importlib.metadata import version
        return f"orc-{version('orc')}"
    except Exception:
        return "orc-unknown"


# ---------------------------------------------------------------------------
# scaling fits

_LOG_FACTOR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
                   ast.Mult: operator.mul, ast.Div: operator.truediv,
                   ast.Pow: operator.pow}


def _log_factor_value(node: ast.AST, names: dict[str, float]) -> float:
    """Evaluate one node of a parsed log-factor; anything but numbers,
    the names n and eps, + - * / **, unary minus and log() is refused."""
    if isinstance(node, ast.Expression):
        return _log_factor_value(node.body, names)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        # floats throughout: no arbitrarily large integer powers
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _LOG_FACTOR_OPS:
        return _LOG_FACTOR_OPS[type(node.op)](_log_factor_value(node.left, names),
                                              _log_factor_value(node.right, names))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_log_factor_value(node.operand, names)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "log" and len(node.args) == 1 and not node.keywords):
        return math.log(_log_factor_value(node.args[0], names))
    raise ValueError(f"unsupported syntax: {type(node).__name__}")


def evaluate_log_factor(expr: str, n: float, eps: float) -> float:
    """Evaluate a normalization expression in the variables n and eps.

    Accepts numbers, n, eps, + - * / **, unary minus and log(), e.g.
    "log(1/eps)" or "n**2*log(n/eps)"; "1" disables normalization.
    The expression is parsed and walked, never executed.
    """
    try:
        value = _log_factor_value(ast.parse(expr, mode="eval"),
                                  {"n": float(n), "eps": float(eps)})
    except (SyntaxError, ValueError, ArithmeticError, TypeError, RecursionError) as exc:
        raise ValueError(f"cannot evaluate log-factor {expr!r}: {exc}")
    # a negative base to a fractional power gives a complex number
    if not isinstance(value, float) or not value > 0:
        raise ValueError(f"log-factor {expr!r} must be positive, got {value}")
    return value


def fit_scaling(rows: list[dict], x: str, y: str,
                log_factor: str = "1") -> tuple[float, float]:
    """Least-squares slope of log(mean(y/log_factor)) vs log(x).

    Returns (slope, standard error).  Rows are grouped by the x column;
    at least 4 distinct x values are required.
    """
    groups: dict[float, list[float]] = {}
    for row in rows:
        xv = float(row[x])
        yv = float(row[y])
        factor = evaluate_log_factor(log_factor, float(row["n"]),
                                     float(row["eps"]))
        groups.setdefault(xv, []).append(yv / factor)
    if len(groups) < 4:
        raise ValueError(f"need >= 4 distinct values of {x!r}, "
                         f"got {len(groups)}")
    keys = sorted(groups)
    means = [float(np.mean(groups[k])) for k in keys]
    for k, mean in zip(keys, means):
        if not (k > 0 and mean > 0):
            raise ValueError(
                f"log-log fit needs positive values: {x!r} = {k:g} has "
                f"mean {y!r} = {mean:g}")
    xs = np.log(keys)
    ys = np.log(means)
    (slope, _), cov = np.polyfit(xs, ys, 1, cov=True)
    return float(slope), float(math.sqrt(max(cov[0, 0], 0.0)))
