"""One line per benchmark pool input: label, outcome, counts, reply hash.

    python3 tools/pool_digest.py --workload web --seed 1

Run from the repository root; the library is imported from `src/` and
the workloads from `perfbench/workloads.py`.  Each input of the pool the
workload builds from the seed is answered once, in pool order, and
printed as

    <index> <label> <outcome> <KIND>=<count> ... <sha256 of the reply>

where the counts are the queries the answer spent by oracle kind, base
oracle first, and the hash covers the reply's bytes (the halfspace's
normal, anchor and slack, the maximizer, or the exception's type and
message).  Diffing the output of two checkouts shows every input whose
outcome, query counts or answer changed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the oracle kind behind each entry of a case's `Result.counts`
KINDS = {"SepMemCase": ("MEM",), "OptSepCase": ("SEP",),
         "SepFromOptCase": ("OPT", "MEM", "SEP"),
         "OptFromValCase": ("VAL", "MEM", "SEP")}


def reply_bytes(reply) -> bytes:
    """What a caller sees of a reply, as bytes."""
    if isinstance(reply, Exception):
        return f"{type(reply).__name__}: {reply}".encode()
    if hasattr(reply, "halfspace"):
        h = reply.halfspace
        if h is None:
            return b"inside"
        return h.normal.tobytes() + h.anchor.tobytes() + struct.pack("<d", h.slack)
    if reply.maximizer is None:
        return b"empty_interior"
    return reply.maximizer.tobytes()


def digest_lines(workload, seed: int):
    """Answer every input of the workload's pool once, in pool order."""
    for index, case in enumerate(workload.build(seed).cases):
        result = case.ask()
        reply = result.reply
        if isinstance(reply, Exception):
            outcome = f"error:{type(reply).__name__}"
        else:
            outcome = case.grade(reply)
        kinds = KINDS.get(type(case).__name__, ())
        counts = " ".join(f"{kind}={count}" for kind, count in zip(kinds, result.counts))
        sha = hashlib.sha256(reply_bytes(reply)).hexdigest()
        yield f"{index} {case.label} {outcome} {counts} {sha}"


def main(argv=None) -> int:
    # as in the benchmark: one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for line in digest_lines(workloads.WORKLOADS[args.workload], args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
