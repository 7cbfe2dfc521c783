"""Command-line interface.

    orc run <config.json> [--out DIR] [--no-timing] [--jobs N]
    orc fit-scaling <csv> --x n --y mem_calls [--log-factor EXPR]
    orc list-chains
    orc validate-config <config.json>

Exit codes: 0 on success (including experiments whose trials report
"violated" — those are data, not failures), 2 for malformed configs or
unknown chains, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .experiments import (CHAIN_DESCRIPTIONS, ConfigError, config_hash,
                          fit_scaling, run_experiment, summarize,
                          validate_config, write_csv)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return validate_config(raw)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = run_experiment(config, jobs=args.jobs)
    stem = config["experiment"]
    csv_path = out_dir / f"{stem}.csv"
    write_csv(records, csv_path, timing=not args.no_timing)
    summary = summarize(config, records)
    summary_path = out_dir / f"{stem}.summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(records)} rows) and {summary_path}")
    for outcome, count in summary["outcomes"].items():
        print(f"  {outcome}: {count}")
    return 0


def _cmd_fit_scaling(args) -> int:
    with open(args.csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        print("error: empty CSV", file=sys.stderr)
        return 1
    for col in (args.x, args.y):
        if col not in rows[0]:
            print(f"error: no column {col!r} in {args.csv}", file=sys.stderr)
            return 1
    slope, stderr = fit_scaling(rows, args.x, args.y, args.log_factor)
    print(f"slope({args.y} vs {args.x}, normalized by {args.log_factor}): "
          f"{slope:.4f} +- {stderr:.4f}")
    return 0


def _cmd_list_chains(_args) -> int:
    width = max(len(name) for name in CHAIN_DESCRIPTIONS)
    for name, desc in CHAIN_DESCRIPTIONS.items():
        print(f"{name:<{width}}  {desc}")
    return 0


def _cmd_validate_config(args) -> int:
    config = _load_config(args.config)
    print(f"OK: {args.config} (hash {config_hash(config)})")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orc", description="convex-oracle reduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded experiment config")
    run.add_argument("config")
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument("--no-timing", action="store_true",
                     help="blank the wall_ms column for byte-stable output")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes running trials (default 1)")
    run.set_defaults(func=_cmd_run)

    fit = sub.add_parser("fit-scaling", help="fit a log-log scaling slope")
    fit.add_argument("csv")
    fit.add_argument("--x", required=True, help="column for the x axis")
    fit.add_argument("--y", required=True, help="column for the y axis")
    fit.add_argument("--log-factor", default="1",
                     help='normalization, e.g. "log(1/eps)" (default "1")')
    fit.set_defaults(func=_cmd_fit_scaling)

    lst = sub.add_parser("list-chains", help="list available reduction chains")
    lst.set_defaults(func=_cmd_list_chains)

    val = sub.add_parser("validate-config", help="schema-check a config file")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
