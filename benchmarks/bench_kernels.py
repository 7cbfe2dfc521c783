"""Time per-ray against lockstep membership bisection on the same rays.

One subgradient estimate of the height function bisects 2n rays that
share a direction x.  The per-ray path runs `bisect_py` once per ray;
the lockstep path runs `bisect_rows` once for the whole (2n, n) stack.
Run with:

    python3 benchmarks/bench_kernels.py

Each line gives the best of two repeats over `STACKS` stacks of 2n
rays, 40 rounds each, and the ratio of the two.
"""

from __future__ import annotations

import time

import numpy as np

from orc import kernels
from orc.bodies import Ball, BoxBody, Ellipsoid, Simplex, random_hpolytope
from orc.core import RandomStream

STACKS = 50


def best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'body':>10} {'n':>3} {'per-ray ms':>11} {'lockstep ms':>12} {'ratio':>6}")
    for n in (4, 16, 32):
        specs = {"ball": Ball(np.zeros(n), 1.0), "box": BoxBody(np.zeros(n), 1.0),
                 "simplex": Simplex(n, 1.0),
                 "ellipsoid": Ellipsoid(np.zeros(n), np.diag(rng.uniform(0.5, 1.5, n))),
                 "hpoly": random_hpolytope(n, RandomStream(n))}
        for name, spec in specs.items():
            code, M, v, s = spec.kernel_args()
            g = spec.geometry
            stacks = []
            for _ in range(STACKS):
                D = g.center + 0.1 * g.r * rng.uniform(-1.0, 1.0, size=(2 * n, n))
                x = rng.normal(size=n)
                x /= np.linalg.norm(x)
                stacks.append((D, x, np.full(2 * n, 4.0 * g.R), np.full(2 * n, 40)))

            def per_ray():
                for D, x, hi, iters in stacks:
                    for d, h, t in zip(D, hi, iters):
                        kernels.bisect_py(code, d, x, M, v, s, h, t)

            def lockstep():
                for D, x, hi, iters in stacks:
                    kernels.bisect_rows(code, D, x, M, v, s, hi, iters)

            ray_s, step_s = best_of(per_ray), best_of(lockstep)
            print(f"{name:>10} {n:>3} {ray_s * 1e3:>11.1f} {step_s * 1e3:>12.1f} "
                  f"{ray_s / step_s:>6.1f}")


if __name__ == "__main__":
    main()
