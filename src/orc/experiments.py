"""Seeded experiment harness behind the command-line interface.

An experiment config names a reduction chain (a variant, such as
`sep_from_mem_theoretical`, is a chain of its own), a body (or function)
template, and grids of dimensions, precisions, and seeds.  Every trial
owns its own seed path and query ledger, builds its chain's oracle (one
`CHAINS` record each) over the exact analytic oracles, asks it one
query, grades the answer (sound / violated / inside / error:<kind>),
and reports query counts.  Rows are ordered deterministically by (n,
eps, seed, trial), so identical configs yield byte-identical CSV output
(timing column aside).
"""

from __future__ import annotations

import ast
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import os
import re
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bodies
from .core import (EVAL, MEM, OPT, SEP, VAL, VIOL, QueryLedger, RandomStream,
                   wrap_with_ledger)
from .ellipsoid import OptimizerConfig, optimize_linear, opt_from_viol
from .geometry import unit
from .reductions import (EpigraphBody, eval_from_mem_epigraph, opt_from_mem,
                         opt_from_val, sep_from_opt)
from .separation import ANCHORED, THEORETICAL, SepFromMem

CSV_COLUMNS = ["experiment", "chain", "n", "eps", "seed", "trial", "outcome",
               "gap", "mem_calls", "sep_calls", "eval_calls", "opt_calls",
               "wall_ms"]

#: outside query points sit at this multiple of the body's radial scale
QUERY_DISTANCE_FACTOR = 1.5

#: an experiment name is the stem of the output files and a CSV field,
#: so it holds no path separator, no leading dot and no comma, and at
#: 200 characters "<name>.summary.json" stays below the usual 255-byte
#: file-name limit
EXPERIMENT_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,199}")

CONFIG_KEYS = {"experiment", "chain", "body", "function", "dims", "eps",
               "seeds", "trials"}

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
    """Check the schema strictly and return the config."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("experiment", "chain"):
        if not isinstance(config.get(key), str) or not config.get(key):
            raise ConfigError(f"'{key}' must be a non-empty string")
    if not EXPERIMENT_NAME.fullmatch(config["experiment"]):
        raise ConfigError(f"'experiment' must match {EXPERIMENT_NAME.pattern}")
    if ("body" in config) == ("function" in config):
        raise ConfigError("exactly one of 'body' or 'function' is required")
    template = config.get("body", config.get("function"))
    if not isinstance(template, dict) or "kind" not in template:
        raise ConfigError("'body'/'function' must be an object with a 'kind'")
    chain = config["chain"]
    if chain not in CHAINS:
        raise ConfigError(f"unknown chain {chain!r}; see `orc list-chains`")
    spec = CHAINS[chain]
    role = "function" if spec.kind == EVAL else "body"
    if role not in config:
        raise ConfigError(f"chain {chain!r} needs a {role!r} template")
    dims = config.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(_is_int(n) and n >= 1 for n in dims)):
        raise ConfigError("'dims' must be a non-empty list of positive ints")
    _check_template(role, template)
    eps_list = config.get("eps")
    if (not isinstance(eps_list, list) or not eps_list
            or not all(isinstance(e, (int, float)) and 0 < e < 0.5
                       for e in eps_list)):
        # core.check_precision's range: every chain asks its query at eps
        raise ConfigError("'eps' must be a non-empty list of floats in (0, 1/2)")
    seeds = config.get("seeds")
    if (not isinstance(seeds, list) or not seeds
            or not all(_is_int(s) and s >= 0 for s in seeds)):
        # numpy's SeedSequence refuses a negative seed
        raise ConfigError("'seeds' must be a non-empty list of non-negative ints")
    trials = config.get("trials")
    if not _is_int(trials) or trials < 1:
        raise ConfigError("'trials' must be a positive int")
    # each n's template as trial (seeds[0], 0) builds it, so a random one
    # is checked on that one draw only, and at every eps the chain over it
    for n in dims:
        try:
            ctx = _trial_context(config, n, eps_list[0], seeds[0], 0)
            for eps in eps_list:
                spec.build(replace(ctx, eps=eps))
        except ValueError as exc:
            raise ConfigError(f"at n = {n}: {exc}") from exc
    return config


def _is_int(x) -> bool:
    """An int that is not a bool: JSON true/false load as bool, an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int or float that is finite as a float: a JSON integer past
    the float range is not."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_template(role: str, template: dict) -> None:
    """The template's kind and keys against what `make_body` or
    `make_function` takes, with the values their constructors accept;
    what only a constructor can tell (too many facets to enumerate, an
    ellipsoid's axes of another length than n, a separator precision
    past the body) is refused when `validate_config` builds each n's
    template and chain."""
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
    if "extra_facets" in template and not (_is_int(template["extra_facets"])
                                           and template["extra_facets"] >= 0):
        raise ConfigError("'extra_facets' must be a non-negative int")
    if "jitter" in template and not _is_number(template["jitter"]):
        raise ConfigError("'jitter' must be a finite number")
    if "axes" in template:
        axes = template["axes"]
        if (not isinstance(axes, list)
                or not all(_is_number(a) and a > 0 for a in axes)):
            raise ConfigError("ellipsoid 'axes' must be a list of positive numbers")


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
        # only the keys the template names: the defaults are the constructor's
        return bodies.random_hpolytope(
            n, rng, **{key: template[key] for key in BODY_KEYS[kind] if key in template})
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
# chains: each builder takes the trial context and returns the oracle asked

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


def _sep_from_mem(ctx, mode=ANCHORED):
    """SEP from exact MEM at membership precision eps, both counted."""
    mem = wrap_with_ledger(bodies.ExactMembership(ctx.body), ctx.ledger)
    sep = SepFromMem(mem, ctx.body.geometry, ctx.rng.child("sep"), eps=ctx.eps, mode=mode)
    return wrap_with_ledger(sep, ctx.ledger)


def _opt_from_sep(ctx):
    """The ellipsoid engine over exact SEP, counted; the answer is not."""
    sep = wrap_with_ledger(bodies.ExactSeparation(ctx.body), ctx.ledger)
    cfg = OptimizerConfig(eps=ctx.eps)
    return lambda c, delta: optimize_linear(cfg, sep, ctx.body.geometry, c)


def _opt_from_mem(ctx):
    return opt_from_mem(bodies.ExactMembership(ctx.body), ctx.body.geometry,
                        ctx.rng.child("sep"), eps=ctx.eps)


def _opt_from_viol(ctx):
    viol = wrap_with_ledger(bodies.ExactViolation(ctx.body), ctx.ledger)
    return wrap_with_ledger(opt_from_viol(viol, ctx.body.geometry, ctx.eps), ctx.ledger)


def _opt_from_val(ctx):
    return opt_from_val(bodies.ExactValidity(ctx.body), ctx.body.geometry,
                        ctx.rng.child("chain"), eps=ctx.eps)


def _sep_from_opt(ctx):
    return sep_from_opt(bodies.ExactOptimization(ctx.body), ctx.body.geometry,
                        ctx.rng.child("chain"), eps=ctx.eps)


def _eval_from_mem_epigraph(ctx):
    mem = wrap_with_ledger(EpigraphBody(ctx.function, ctx.n).as_mem(), ctx.ledger)
    return wrap_with_ledger(eval_from_mem_epigraph(mem, ctx.n), ctx.ledger)


@dataclass(frozen=True)
class Chain:
    """A CLI chain: the line `list-chains` prints, the builder of its
    oracle over the trial's exact oracles, the kind that oracle answers
    (SEP, OPT or EVAL: it fixes the query drawn, the grade and, for
    EVAL, a "function" template instead of a "body") and the grading
    tolerance of an OPT or EVAL answer in units of eps; a builder's
    variant is a record of its own, not a config setting."""
    description: str
    build: Callable
    kind: str
    tol: float = 1.0


CHAINS = {
    "sep_from_mem": Chain(
        "separation from membership via height-function subgradients",
        _sep_from_mem, SEP),
    "sep_from_mem_theoretical": Chain(
        "separation from membership, with the theoretical slack term",
        functools.partial(_sep_from_mem, mode=THEORETICAL), SEP),
    "opt_from_sep": Chain(
        "linear optimization from exact separation (central-cut ellipsoid)",
        _opt_from_sep, OPT),
    "opt_from_mem": Chain(
        "linear optimization from membership (composition of the two above)",
        _opt_from_mem, OPT),
    # the threshold bisection adds one eps of bracketing error on top of
    # the inner oracle's contract
    "opt_from_viol": Chain(
        "optimization from violation by threshold bisection",
        _opt_from_viol, OPT, tol=2.0),
    "opt_from_val": Chain(
        "optimization from validity via a support bisection and one cut of the polar body",
        _opt_from_val, OPT, tol=3.0),
    "sep_from_opt": Chain(
        "separation from optimization via linear optimization over the polar body",
        _sep_from_opt, SEP),
    "eval_from_mem_epigraph": Chain(
        "function evaluation from epigraph-body membership",
        _eval_from_mem_epigraph, EVAL, tol=2.0),
}


def _ask(ctx, oracle, query):
    """oracle(query, eps), a composed chain's stage ledgers merged into
    the trial's even if it raises."""
    try:
        return oracle(query, ctx.eps)
    finally:
        stages = getattr(oracle, "ledgers", None)
        for ledger in vars(stages).values() if stages is not None else ():
            ctx.ledger.merge(ledger)


def _run_chain(spec: Chain, ctx) -> tuple[str, float | None]:
    """One query of the chain's kind at the trial's eps, graded: (outcome, gap)."""
    oracle = spec.build(ctx)
    tol = spec.tol * ctx.eps
    if spec.kind == SEP:
        x = _outside_query(ctx.body, ctx.rng.child("query"))
        return _grade_halfspace(ctx.body, _ask(ctx, oracle, x))
    if spec.kind == OPT:
        c = unit(ctx.rng.child("obj").generator().normal(size=ctx.n))
        return _grade_opt(ctx.body, _ask(ctx, oracle, c), c, tol)
    y = ctx.rng.child("query").generator().normal(size=ctx.n)
    norm = float(np.linalg.norm(y))
    if norm > 1.0:
        y = y / (norm * 1.25)
    gap = abs(_ask(ctx, oracle, y) - ctx.function(y, 0.0))
    return ("sound" if gap <= tol else "violated"), gap


@dataclass
class _TrialContext:
    body: bodies.BodySpec | None
    function: object
    n: int
    eps: float
    rng: RandomStream
    ledger: QueryLedger


def _trial_context(config: dict, n: int, eps: float, seed: int, trial: int) -> _TrialContext:
    rng = RandomStream(seed).child(n, trial)
    template = config.get("body", config.get("function"))
    body = function = None
    if "body" in config:
        body = make_body(template, n, rng.child("body"))
    else:
        function = make_function(template, n, rng.child("function"))
    return _TrialContext(body=body, function=function, n=n, eps=eps, rng=rng,
                         ledger=QueryLedger())


def run_trial(config: dict, n: int, eps: float, seed: int,
              trial: int) -> TrialRecord:
    ctx = _trial_context(config, n, eps, seed, trial)
    start = time.perf_counter()
    try:
        outcome, gap = _run_chain(CHAINS[config["chain"]], ctx)
    except Exception as exc:  # graded, not fatal: errors are data
        outcome, gap = f"error:{type(exc).__name__}", None
    wall_ms = (time.perf_counter() - start) * 1e3
    totals = ctx.ledger.totals()
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
    """`run_grid` of the config `validate_config` returns."""
    return run_grid(validate_config(config), jobs)


def run_grid(config: dict, jobs: int = 1) -> list[TrialRecord]:
    """Every trial of a validated config's grid, in (n, eps, seed, trial)
    order.  With jobs > 1 the trials run in a pool of `_pool_size`
    spawned worker processes; each trial owns its seed path and ledger,
    so the records are the same as a sequential run's."""
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
        "max_gap": max(map(abs, gaps)) if gaps else None,
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
