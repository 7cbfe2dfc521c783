"""Oracle-reduction benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload sep_mem --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`.
The loop is closed: one caller, one process, no threads, and each answer
is asked only after the previous one returned.  OpenBLAS is pinned to
one thread before numpy loads.

Set-up imports `orc`, builds every body and input from the seed and
answers the first few inputs as a warm-up.  It runs `SETUPS` times;
`setup_s` is the import time plus the median set-up.  The timed loop
then walks the pool of inputs from the front, round and round, until
`--seconds` have passed and every input has been answered at least once.
Every answer is graded (see `workloads`), and every answer that repeats
an earlier one with the same seed, the warm-up answers included, must
agree with it on outcome and query counts; the run is incorrect
otherwise.  So `attempted` is the number of distinct inputs in the pool
and `failed` the number of them whose answer failed: both depend on the
seed alone, not on how many answers the machine managed in the time.

The machines this runs on are shared, and their speed swings by up to
a factor of two within seconds as neighbours come and go.  So a fixed
reference task that does not touch `orc` (the probe) is timed before
every answer and after the last, and each answer's wall time is
rescaled to a machine on which the probe takes `PROBE_REF_NS`, using
the two probes around it.  The probe is also read, as the median of
`SETUP_PROBES` timings, after the import and after each set-up: each
set-up is rescaled by the readings on either side of it and the import
by the first.  The unscaled figures are in the details line.

Failed answers (graded `violated`, `inside`, `empty_interior` or ending
in an exception) are counted, once per input, in the result's `failed`
and, by kind, in the traced run's `grade.*` metrics.  Their share is
not an end-to-end metric: failures come from known defects on a few per
cent of inputs, so the share swings with the seed far more than any
bound allows.

With `--trace 0` the result carries the end-to-end metrics.  With
`--trace 1` every input is answered twice, plain and with spans around
the public `orc` functions listed in `spans.TARGETS`, and the result
carries the per-layer metrics; the traced answers must reproduce the
plain ones exactly.

The last line of standard output is the result, one JSON object with
the keys correct, attempted, failed and metrics.  The line before it
holds the provenance and details: versions, seed, the number of
distinct inputs by outcome, the tail percentile and its sample count,
and the digest of the first cycle of answers (label, outcome, query
counts).  Both are also written to `perfbench/out/`.
Exit status: 0 for a correct run, 1 for an incorrect one, 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import os

# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUPS = 3
PROBE_REF_NS = 400_000
SETUP_PROBES = 5
TRACE_RECORD_CAP = 400_000


def _import_library():
    """Import orc from this checkout's src/ and time it."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import orc
    except ImportError as exc:
        _fail(f"cannot import orc from {ROOT / 'src'}: {exc}")
    elapsed = time.perf_counter() - start
    if not Path(orc.__file__).resolve().is_relative_to(ROOT / "src"):
        _fail(f"orc was imported from {orc.__file__}, not from this checkout")
    return elapsed


def _fail(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _openblas_threads():
    """Threads OpenBLAS reports in force, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def _source_sha():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "orc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    import orc.kernels

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads_in_force": _openblas_threads(),
        "numba_enabled": bool(orc.kernels.NUMBA_ENABLED),
        "seed": seed,
    }


def make_probe():
    """A fixed reference task, independent of orc, timed between answers
    to read how fast the shared machine runs.  It runs twice and only the
    second run is timed, so what the answer before it left in the caches
    does not count."""
    import numpy as np

    vec = np.linspace(0.0, 1.0, 16)

    def work():
        acc = 0.0
        for i in range(60):
            w = np.asarray(vec, dtype=np.float64)
            if np.all(np.isfinite(w)):
                acc += float(w @ vec) * 0.5 + float(np.linalg.norm(w)) + i
        return acc

    def probe() -> int:
        work()
        start = time.perf_counter_ns()
        work()
        return time.perf_counter_ns() - start

    return probe


class Log:
    """Per-answer record of one phase: time, outcome, counts."""

    def __init__(self):
        self.ms: list[float] = []
        self.entries: list[tuple] = []
        self.probe_ns: list[int] = []

    def add(self, ms: float, entry: tuple) -> None:
        self.ms.append(ms)
        self.entries.append(entry)

    def digest(self, count: int) -> str:
        text = json.dumps(self.entries[:count], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Grades answers and holds the first answer seen for each input, so
    any repeat with the same seed can be compared against it.  Outcomes
    are kept per input in `graded`; `new_phase` empties it, so each phase
    counts the distinct inputs it answered."""

    def __init__(self):
        self.first: dict[int, tuple] = {}
        self.mismatches: list[int] = []
        self.graded: dict[int, str] = {}
        self.unexpected: dict[int, str] = {}

    def new_phase(self) -> None:
        self.graded = {}

    def check(self, index: int, case, result) -> tuple:
        reply = result.reply
        outcome = f"error:{type(reply).__name__}" if isinstance(reply, Exception) else case.grade(reply)
        entry = (case.label, outcome, *result.counts)
        if self.first.setdefault(index, entry) != entry:
            self.mismatches.append(index)
        self.graded.setdefault(index, outcome)
        if outcome != "sound" and not case.defect:
            self.unexpected.setdefault(index, f"{case.label}: {outcome}")
        return entry

    @property
    def attempted(self) -> int:
        return len(self.graded)

    @property
    def failed(self) -> int:
        return sum(outcome != "sound" for outcome in self.graded.values())

    def outcomes(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.graded.values():
            counts[outcome] = counts.get(outcome, 0) + 1
        return dict(sorted(counts.items()))


def answer_loop(inputs, checker: Checker, deadline: float | None, indices=None,
                tracer=None, log: Log | None = None, probe=None) -> Log:
    """Answer pool inputs in order until the deadline has passed and the
    whole pool has been answered once (or answer the given indices);
    grading and checks run outside the timed region."""
    log = Log() if log is None else log
    cases = inputs.cases
    i = 0
    while True:
        if indices is not None:
            if i >= len(indices):
                break
            index = indices[i] % len(cases)
        else:
            if i >= len(cases) and time.perf_counter() >= deadline:
                break
            index = i % len(cases)
        case = cases[index]
        if probe is not None:
            log.probe_ns.append(probe())
        start = time.perf_counter_ns()
        result = tracer.answer(case.ask) if tracer is not None else case.ask()
        ms = (time.perf_counter_ns() - start) / 1e6
        log.add(ms, checker.check(index, case, result))
        i += 1
    if probe is not None:
        log.probe_ns.append(probe())
    return log


def setup(workload, seed: int, checker: Checker):
    start = time.perf_counter()
    inputs = workload.build(seed)
    answer_loop(inputs, checker, None, indices=range(workload.warmup))
    return inputs, time.perf_counter() - start


def probe_median(probe) -> float:
    return statistics.median(probe() for _ in range(SETUP_PROBES))


def tail(ms: list[float], pct: float) -> tuple[float, int]:
    """Time at the given percentile (nearest rank) and the number of
    answers beyond it."""
    ordered = sorted(ms)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, log: Log, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    """Each answer time is rescaled by the probes on either side of it to
    a machine on which the probe takes PROBE_REF_NS; the raw figures go
    to the details."""
    n = len(log.ms)
    p = log.probe_ns
    scaled = [ms * 2.0 * PROBE_REF_NS / (p[i] + p[i + 1]) for i, ms in enumerate(log.ms)]
    tail_ms, beyond = tail(scaled, workload.tail_pct)
    raw_tail, _ = tail(log.ms, workload.tail_pct)
    base_calls = sum(entry[2] for entry in log.entries)
    run_scale = PROBE_REF_NS / statistics.fmean(p)
    metrics = {
        "answers_per_s": (n / (sum(scaled) / 1e3), "1/s"),
        "answer_ms_p50": (statistics.median(scaled), "ms"),
        "answer_ms_tail": (tail_ms, "ms"),
        "oracle_calls_per_answer": (base_calls / n, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"tail_percentile": workload.tail_pct, "tail_samples": n,
               "answers_beyond_tail": beyond, "base_oracle": workload.base,
               "probe_scale": run_scale,
               "unscaled": {"answers_per_s": n / (sum(log.ms) / 1e3),
                            "answer_ms_p50": statistics.median(log.ms),
                            "answer_ms_tail": raw_tail, "setup_s": raw_setup_s}}
    return metrics, details


def traced_run(workload, inputs, checker: Checker, seconds: float, seed: int):
    """Answer the whole pool once, then whole cycles of it until the time
    is up, twice per input, plain and traced, in alternating order so
    drift over the run does not bias the tracing overhead."""
    from spans import Tracer, instrument, layer_metrics

    tracer = Tracer(TRACE_RECORD_CAP)
    plain, traced, replay = Log(), Log(), Checker()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < len(inputs.cases) or time.perf_counter() < deadline:
        for _ in range(inputs.cycle):
            for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_turn:
                    with instrument(tracer):
                        answer_loop(inputs, replay, None, [index], tracer, traced)
                else:
                    answer_loop(inputs, checker, None, [index], None, plain)
            index += 1
    checker.mismatches += [i for i, (a, b) in enumerate(zip(plain.entries, traced.entries))
                           if a != b]
    n = len(traced.ms)
    metrics = {name: (value, _layer_unit(name)) for name, value in layer_metrics(tracer, n).items()}
    metrics["bodies.build_ms"] = (inputs.build_ms, "ms")
    metrics["trace.overhead_frac"] = (sum(traced.ms) / sum(plain.ms) - 1.0, "fraction")
    outcomes, attempted = checker.outcomes(), checker.attempted
    errors = sum(v for k, v in outcomes.items() if k.startswith("error:"))
    metrics["grade.fail_frac"] = (checker.failed / attempted, "fraction")
    metrics["grade.violated_frac"] = (outcomes.get("violated", 0) / attempted, "fraction")
    metrics["grade.error_frac"] = (errors / attempted, "fraction")
    tracer.save(OUT / f"{workload.name}-seed{seed}-spans.npz")
    details = {"span_records": len(tracer.rec_name), "spans_dropped": tracer.dropped}
    return plain, metrics, details


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    checker = Checker()
    probe = make_probe()
    probes = [probe_median(probe)]
    setups = SETUPS if args.trace == 0 else 1
    times, scaled = [], []
    for _ in range(setups):
        inputs, elapsed = setup(workload, args.seed, checker)
        probes.append(probe_median(probe))
        times.append(elapsed)
        scaled.append(elapsed * 2.0 * PROBE_REF_NS / (probes[-2] + probes[-1]))
    setup_s = import_s * PROBE_REF_NS / probes[0] + statistics.median(scaled)
    # warm-up answers are set-up; only the timed phase counts below
    checker.new_phase()

    if args.trace == 0:
        log = answer_loop(inputs, checker, time.perf_counter() + args.seconds,
                          probe=probe)
        metrics, details = end_to_end(workload, log, setup_s,
                                      import_s + statistics.median(times))
    else:
        log, metrics, details = traced_run(workload, inputs, checker, args.seconds, args.seed)

    digest_count = min(len(log.entries), inputs.cycle)
    details.update({
        "workload": workload.name,
        "answers": len(log.ms),
        "outcomes": checker.outcomes(),
        "unexpected_failures": list(checker.unexpected.values())[:20],
        "repeat_mismatches": checker.mismatches[:20],
        "digest": log.digest(digest_count),
        "digest_answers": digest_count,
        "setup_runs_s": times,
        "setup_probes_ns": probes,
        "import_s": import_s,
    })
    correct = not checker.unexpected and not checker.mismatches
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"provenance": provenance(args.seed), "details": details}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**record, "result": result,
         "answers": [[ms, *entry] for ms, entry in zip(log.ms, log.entries)]}))
    print(json.dumps(record))
    print(json.dumps(result))
    if checker.mismatches:
        print(f"answers differ between repeats with seed {args.seed}: "
              f"indices {checker.mismatches[:5]}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
