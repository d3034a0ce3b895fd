#!/usr/bin/env python3
"""Time one command of scripts/full_pipeline.py in two checkouts, in
alternating pairs of fresh processes.

Usage: python scripts/pipeline_pairs.py PARENT CHANGE COMMAND [--pairs N]

PARENT and CHANGE are checkout roots; COMMAND names an entry of
``full_pipeline.COMMANDS``, whose arguments both sides run.  Each run is a
fresh interpreter on that checkout's ``src``: it imports ``degenlab.cli``,
then times one ``cli.run`` of the command (its wall time and the process's
CPU time, the import excluded) into a temporary output directory.  Pair k runs the
parent first when k is even and the change first when k is odd.  The
summary gives each side's median and interquartile distance of both times,
and the pairs the change won (ties count for neither side).  Exit 1 if the
two sides' exit codes differ in any pair, or a run prints no timing; else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from full_pipeline import COMMANDS  # noqa: E402

# the child: argv[1] is the checkout's src, argv[2] the command's JSON arguments
CHILD = """
import json, os, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
import degenlab
from degenlab.cli import run
if not os.path.realpath(degenlab.__file__).startswith(os.path.realpath(sys.argv[1]) + os.sep):
    sys.exit(f"degenlab came from {degenlab.__file__}, not from {sys.argv[1]}")
with tempfile.TemporaryDirectory() as out:
    os.environ["DEGENLAB_OUT"] = out
    wall, cpu = time.perf_counter(), time.process_time()
    code = run(json.loads(sys.argv[2]))
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps({"code": code, "wall": wall, "cpu": cpu}))
"""


def run_once(root: Path, argv: list) -> dict:
    """{code, wall, cpu} of one fresh process running ``argv`` on root/src."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), json.dumps(argv)],
                          capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError(f"no timing from {root} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple:
    """(median, interquartile distance), inclusive quartiles; 0 for one value."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summary(pairs: list) -> list:
    """(time, parent (median, IQR), change (median, IQR), change wins) for
    wall and cpu, over ``pairs`` of (parent run, change run)."""
    rows = []
    for key in ("wall", "cpu"):
        p, c = ([run[key] for run in side] for side in zip(*pairs))
        rows.append((key, spread(p), spread(c), sum(cv < pv for pv, cv in zip(p, c))))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    command = COMMANDS[args.command][0]
    pairs, mismatched = [], 0
    try:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            runs = {side: run_once(getattr(args, side), command) for side in order}
            pairs.append((runs["parent"], runs["change"]))
            mismatched += runs["parent"]["code"] != runs["change"]["code"]
            print(f"{args.command} pair {k}, {order[0]} first: " + "  ".join(
                f"{key} {runs['parent'][key]:.4g} -> {runs['change'][key]:.4g} s"
                for key in ("wall", "cpu"))
                  + f"  exit {runs['parent']['code']} -> {runs['change']['code']}")
    except RuntimeError as e:
        print(f"pipeline_pairs: {e}", file=sys.stderr)
        return 1
    print(f"{args.command}: {len(pairs)} pairs")
    print(f"  {'time':6s} {'parent median':>13s} {'IQR':>9s} {'change median':>13s} "
          f"{'IQR':>9s}  change wins")
    for key, (pm, pi), (cm, ci), wins in summary(pairs):
        print(f"  {key:6s} {pm:13.4g} {pi:9.3g} {cm:13.4g} {ci:9.3g}  {wins}/{len(pairs)}")
    if mismatched:
        print(f"  exit codes differ in {mismatched} pairs")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
