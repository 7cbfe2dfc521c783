"""Time this checkout's `orc` against another checkout's, in one process.

    python3 tools/ab_time.py --workload opt_sep --base ../parent --seed 1

Run from the repository root.  `--base` is the root of another checkout
of this repository (a `git archive` or `git clone` of a parent commit).
Both libraries and both benchmark workloads are imported into this one
process, this checkout's under the names `this_orc` and
`this_perfbench` and the base checkout's under `base_orc` and
`base_perfbench`.  Each builds the workload's pool from the seed, and
the two pools are answered input by input, alternately, in ABBA order:
the base first on even inputs, this checkout first on odd ones, so a
drift in the machine's speed weighs on both sides alike.  Every pair
must agree on query counts and on the reply's bytes
(`pool_digest.reply_bytes`), or the tool stops with an error.

It prints one line per input label and a total:

    <label> <pairs> <base ms> <this ms> <median ratio>

where the times are medians over the label's answers and the ratio is
the median over pairs of base time / this time, so a ratio above 1
means this checkout answers faster.  The total line's ratio is the sum
of base times over the sum of this checkout's, the ratio of the two
sides' answers per second.  Time-sharing machines change speed within
seconds, so a ratio taken within one process, pair by pair, reads far
steadier than two separate benchmark runs.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from pool_digest import reply_bytes

ROOT = Path(__file__).resolve().parent.parent

#: the package names whose modules are loaded once per checkout
PACKAGES = ("orc", "perfbench")


def _owned(name: str) -> bool:
    return any(name == pkg or name.startswith(pkg + ".") for pkg in PACKAGES)


def load_workloads(root: Path, prefix: str):
    """`perfbench.workloads` of the checkout at `root`, with the `orc`
    under that checkout's `src/`.  The loaded modules stay in
    `sys.modules` under `<prefix>orc...` and `<prefix>perfbench...`, and
    the names `orc` and `perfbench` go back to what held them before, so
    two checkouts, and the caller's own `orc`, live side by side."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}
    paths = [str(root / "src"), str(root)]
    sys.path[:0] = paths
    try:
        import perfbench.workloads as workloads
    finally:
        del sys.path[:len(paths)]
        loaded = {name: sys.modules.pop(name) for name in list(sys.modules) if _owned(name)}
        sys.modules.update({prefix + name: module for name, module in loaded.items()})
        sys.modules.update(saved)
    return workloads


def _timed(case):
    start = time.perf_counter_ns()
    result = case.ask()
    return time.perf_counter_ns() - start, result


def ab_pairs(base_cases, cases):
    """(label, base ns, this ns) for every input of the two pools, in
    ABBA order; each pair's counts and reply bytes must agree."""
    if [c.label for c in base_cases] != [c.label for c in cases]:
        raise SystemExit("the two checkouts build different pools")
    for index, (base_case, case) in enumerate(zip(base_cases, cases)):
        if index % 2 == 0:
            base_ns, base_result = _timed(base_case)
            ns, result = _timed(case)
        else:
            ns, result = _timed(case)
            base_ns, base_result = _timed(base_case)
        if (base_result.counts != result.counts
                or reply_bytes(base_result.reply) != reply_bytes(result.reply)):
            raise SystemExit(f"input {index} ({case.label}): the replies differ")
        yield case.label, base_ns, ns


def report(pairs) -> list[str]:
    by_label = defaultdict(list)
    for label, base_ns, ns in pairs:
        by_label[label].append((base_ns, ns))
    lines = []
    for label, times in sorted(by_label.items()):
        base_ms = statistics.median(b for b, _ in times) / 1e6
        this_ms = statistics.median(t for _, t in times) / 1e6
        ratio = statistics.median(b / t for b, t in times)
        lines.append(f"{label} {len(times)} {base_ms:.3f} {this_ms:.3f} {ratio:.3f}")
    every = [t for times in by_label.values() for t in times]
    total = sum(b for b, _ in every) / sum(t for _, t in every)
    lines.append(f"total {len(every)} {sum(b for b, _ in every) / 1e6:.1f} "
                 f"{sum(t for _, t in every) / 1e6:.1f} {total:.3f}")
    return lines


def main(argv=None) -> int:
    # as in the benchmark: one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sep_mem", "opt_sep", "web"))
    parser.add_argument("--base", required=True, type=Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    base = load_workloads(args.base.resolve(), "base_")
    this = load_workloads(ROOT, "this_")
    base_workload = base.WORKLOADS[args.workload]
    workload = this.WORKLOADS[args.workload]
    base_cases = base_workload.build(args.seed).cases
    cases = workload.build(args.seed).cases
    # warm-up: first-call caches on both sides
    for case in base_cases[:workload.warmup] + cases[:workload.warmup]:
        case.ask()
    print("label pairs base_ms this_ms ratio")
    for line in report(ab_pairs(base_cases, cases)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
