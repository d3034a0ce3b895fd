#!/usr/bin/env python3
"""Time a numpy matmul per shape and the CPU that a sleep after it burns.

Usage: python scripts/blas_spin.py M K N [M K N ...]

For each shape, (M x K) @ (K x N) in float64: the median wall time of
REPEATS products, then the process CPU time (every thread of the process)
that one sleep of SLEEP seconds burns right after one more product.  A
product that OpenBLAS runs on several threads leaves its other threads
spinning after it returns; they show as CPU burned during the sleep, which
a single-threaded product leaves near 0.  The products run outside
``degenlab.cli.run``, which holds every subcommand on one OpenBLAS thread,
so ``OPENBLAS_NUM_THREADS``, set before the run, fixes their thread count.
"""

import argparse
import statistics
import time

import numpy as np

REPEATS = 21
SLEEP = 0.05    # seconds


def measure(m: int, k: int, n: int) -> tuple:
    """(median seconds per product, CPU seconds burned in the following sleep)."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    out = np.empty((m, n))
    time.sleep(SLEEP)                   # let threads of an earlier shape settle
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    time.sleep(SLEEP)
    np.matmul(a, b, out=out)
    c0 = time.process_time()
    time.sleep(SLEEP)
    return statistics.median(times), time.process_time() - c0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dims", nargs="+", type=int, help="M K N, repeated per shape")
    args = ap.parse_args(argv)
    if len(args.dims) % 3:
        ap.error("give the dimensions in threes: M K N")
    print(f"{'M':>7} {'K':>5} {'N':>5} {'M*K*N':>11} {'matmul_ms':>10} {'sleep_cpu_ms':>13}")
    for i in range(0, len(args.dims), 3):
        m, k, n = args.dims[i:i + 3]
        wall, cpu = measure(m, k, n)
        print(f"{m:7d} {k:5d} {n:5d} {m * k * n:11d} {wall * 1e3:10.4f} {cpu * 1e3:13.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
