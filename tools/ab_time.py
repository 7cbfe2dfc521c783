"""Time this checkout's `orc` against another checkout's, in one process.

    python3 tools/ab_time.py --workload opt_sep --base ../parent --seed 1 --passes 15

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
(`pool_digest.reply_bytes`), or the tool stops with an error.  With
`--passes N` (default 1) both pools are answered N times over, each
pass in ABBA order, and the report covers the pairs of every pass: one
pass of a small pool cannot resolve a change of a few per cent, since
its ratio moves by more than that from pass to pass.

It prints one line per input label and a total:

    <label> <pairs> <base ms> <this ms> <median ratio>

where the times are medians over the label's answers and the ratio is
the median over pairs of base time / this time, so a ratio above 1
means this checkout answers faster.  The total line's ratio is the sum
of base times over the sum of this checkout's, the ratio of the two
sides' answers per second.  Time-sharing machines change speed within
seconds, so a ratio taken within one process, pair by pair, reads far
steadier than two separate benchmark runs.

With `--setup` it times set-up instead: `Workload.build(seed)` of the
two checkouts, one untimed build each and then `--passes` timed pairs in
ABBA order, and prints

    setup <pairs> <base ms> <this ms> <median ratio>

after checking that the two pools hold the same labels and bitwise
equal inputs (`input_bytes`: each body's r, R and centre, a polytope's
A, b and vertices, and the query point or objective), or it stops with
an error.  This sizes a set-up change without the imports that a
benchmark run's set-up time also holds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import struct
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


def _timed(call):
    start = time.perf_counter_ns()
    result = call()
    return time.perf_counter_ns() - start, result


def _abba(index: int, base_call, call):
    """Both calls timed, the base first when `index` is even: ((base ns,
    base result), (this ns, this result))."""
    if index % 2 == 0:
        base = _timed(base_call)
        return base, _timed(call)
    this = _timed(call)
    return _timed(base_call), this


def _same_labels(base_cases, cases):
    if [c.label for c in base_cases] != [c.label for c in cases]:
        raise SystemExit("the two checkouts build different pools")


def ab_pairs(base_cases, cases):
    """(label, base ns, this ns) for every input of the two pools, in
    ABBA order; each pair's counts and reply bytes must agree."""
    _same_labels(base_cases, cases)
    for index, (base_case, case) in enumerate(zip(base_cases, cases)):
        (base_ns, base_result), (ns, result) = _abba(index, base_case.ask, case.ask)
        if (base_result.counts != result.counts
                or reply_bytes(base_result.reply) != reply_bytes(result.reply)):
            raise SystemExit(f"input {index} ({case.label}): the replies differ")
        yield case.label, base_ns, ns


def ab_passes(base_cases, cases, passes: int):
    """`ab_pairs` over `passes` passes of the two pools, one after the
    other."""
    for _ in range(passes):
        yield from ab_pairs(base_cases, cases)


def input_bytes(case) -> bytes:
    """An input's body and question, as bytes: the body's type, r, R and
    centre, a polytope's A, b and vertices, and the case's query point
    or objective."""
    body = case.body
    g = body.geometry
    parts = [type(body).__name__.encode(), struct.pack("<dd", g.r, g.R), g.center.tobytes()]
    for name in ("A", "b", "vertices", "x", "c"):
        owner = case if name in ("x", "c") else body
        value = getattr(owner, name, None)
        if value is not None:
            parts.append(name.encode() + value.tobytes())
    return b"|".join(parts)


def same_inputs(base_cases, cases):
    """Stop unless the two pools hold the same labels and bitwise equal
    inputs."""
    _same_labels(base_cases, cases)
    for index, (base_case, case) in enumerate(zip(base_cases, cases)):
        if input_bytes(base_case) != input_bytes(case):
            raise SystemExit(f"input {index} ({case.label}): the inputs differ")


def setup_pairs(base_workload, workload, seed: int, passes: int):
    """(base ns, this ns) of `passes` builds of each pool, in ABBA order."""
    for index in range(passes):
        (base_ns, _), (ns, _) = _abba(index, lambda: base_workload.build(seed),
                                      lambda: workload.build(seed))
        yield base_ns, ns


def setup_line(pairs) -> str:
    pairs = list(pairs)
    base_ms = statistics.median(b for b, _ in pairs) / 1e6
    this_ms = statistics.median(t for _, t in pairs) / 1e6
    ratio = statistics.median(b / t for b, t in pairs)
    return f"setup {len(pairs)} {base_ms:.3f} {this_ms:.3f} {ratio:.3f}"


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
    parser.add_argument("--passes", type=int, default=1,
                        help="answer both pools this many times (default 1)")
    parser.add_argument("--setup", action="store_true",
                        help="time building the pools, not answering them")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    base = load_workloads(args.base.resolve(), "base_")
    this = load_workloads(ROOT, "this_")
    base_workload = base.WORKLOADS[args.workload]
    workload = this.WORKLOADS[args.workload]
    base_cases = base_workload.build(args.seed).cases
    cases = workload.build(args.seed).cases
    if args.setup:
        same_inputs(base_cases, cases)
        print("label pairs base_ms this_ms ratio")
        print(setup_line(setup_pairs(base_workload, workload, args.seed, args.passes)))
        return 0
    # warm-up: first-call caches on both sides
    for case in base_cases[:workload.warmup] + cases[:workload.warmup]:
        case.ask()
    print("label pairs base_ms this_ms ratio")
    for line in report(ab_passes(base_cases, cases, args.passes)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
