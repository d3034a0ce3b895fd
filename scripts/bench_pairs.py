#!/usr/bin/env python3
"""Run one perfbench workload in two checkouts, in alternating pairs, and
compare their end-to-end metrics.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds FIRST COUNT [--seconds S]

PARENT and CHANGE are checkout roots.  Pair k runs ``perfbench/run.py
--workload W --seed FIRST+k --seconds S --trace 0`` in both, the parent
first when k is even and the change first when k is odd.  For each
end-to-end metric of BENCHMARK.json the summary gives the parent and change
medians, the interquartile distance of the parent's runs, and the pairs the
change won (ties count for neither side).  Exit 1 if a run fails or reports
``failed > 0``, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def end_to_end_metrics() -> list:
    """(name, better) of each end-to-end metric of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def record(stdout: str) -> dict:
    """The JSON line that perfbench prints after its report."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("perfbench printed no JSON line")
    return json.loads(lines[-1])


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return record(proc.stdout)


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(pairs: list, metrics: list) -> list:
    """(name, parent median, change median, parent IQR, change wins) per
    metric, over ``pairs`` of (parent record, change record)."""
    rows = []
    for name, better in metrics:
        p = [pr["metrics"][name]["value"] for pr, _ in pairs]
        c = [cr["metrics"][name]["value"] for _, cr in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
        rows.append((name, statistics.median(p), statistics.median(c), _iqr(p), wins))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "COUNT"), required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    args = ap.parse_args(argv)
    metrics = end_to_end_metrics()
    first, count = args.seeds
    pairs = []
    try:
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: run_once(getattr(args, side), args.workload, first + k, args.seconds)
                    for side in order}
            pairs.append((runs["parent"], runs["change"]))
            print(f"seed {first + k}, {order[0]} first: " + "  ".join(
                f"{name} {runs['parent']['metrics'][name]['value']:.6g} -> "
                f"{runs['change']['metrics'][name]['value']:.6g}" for name, _ in metrics))
    except RuntimeError as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, seeds {first}-{first + count - 1}")
    print(f"  {'metric':14s} {'parent':>12s} {'change':>12s} {'parent IQR':>12s}  change wins")
    for name, pm, cm, iqr, wins in summary(pairs, metrics):
        print(f"  {name:14s} {pm:12.6g} {cm:12.6g} {iqr:12.6g}  {wins}/{len(pairs)}")
    failed = sum(r["failed"] for pair in pairs for r in pair)
    if failed:
        print(f"  {failed} failed invocations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
