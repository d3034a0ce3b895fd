#!/usr/bin/env python3
"""Run perfbench workloads in two checkouts, in alternating pairs, and
compare their end-to-end metrics.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W [W ...]
           --seeds FIRST COUNT [--seconds S] [--record PATH]

PARENT and CHANGE are checkout roots; each W names a workload of
BENCHMARK.json, and ``all`` stands for every one.  Pair k runs, workload by
workload, ``perfbench/run.py --workload W --seed FIRST+k --seconds S --trace 0``
in both checkouts, the parent first when k is even and the change first when
k is odd.  For each workload and end-to-end metric of BENCHMARK.json the
summary gives each side's first quartile, median and third quartile, the
interquartile distance of the parent's runs, and the pairs the change won
(ties count for neither side).  The scaled times are perfbench's raw
times multiplied by the machine speed that ``worker.calibrate`` measured
next to them, and a change to the program can move that measurement too,
so the summary also gives each side's median raw times and speed factor,
read from perfbench's ``machine speed ... unscaled medians ...`` report
line.  ``--record PATH`` writes one JSON line per run to PATH as the run
ends: perfbench's full JSON line with the keys ``workload``, ``pair``,
``seed``, ``side`` (parent or change) and ``first`` (the side that ran
first in the pair) added, and ``speed`` and ``raw`` (the unscaled medians)
from the report line.  Exit 1 if a run fails or reports ``failed > 0``,
else 0.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MACHINE = re.compile(r"machine speed (\S+) of the reference; unscaled medians (.*)")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_metrics() -> list:
    """(name, better) of each end-to-end metric of BENCHMARK.json."""
    return [(m["name"], m["better"]) for m in _benchmark()["end_to_end"]]


def workloads(names: list) -> list:
    """The workloads named, or every workload of BENCHMARK.json for ``all``."""
    return [w["name"] for w in _benchmark()["workloads"]] if "all" in names else names


def record(stdout: str) -> dict:
    """The JSON line that perfbench prints after its report, with the
    report's speed factor and unscaled medians as ``speed`` and ``raw``
    where it printed them."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("perfbench printed no JSON line")
    rec = json.loads(lines[-1])
    for m in filter(None, map(MACHINE.match, stdout.splitlines())):
        rec["speed"] = float(m[1])
        rec["raw"] = {k: float(v) for k, v in (f.split("=", 1) for f in m[2].split())}
    return rec


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return record(proc.stdout)


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive; one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(pairs: list, metrics: list) -> list:
    """(name, parent quartiles, change quartiles, change wins) per metric,
    over ``pairs`` of (parent record, change record)."""
    rows = []
    for name, better in metrics:
        p = [pr["metrics"][name]["value"] for pr, _ in pairs]
        c = [cr["metrics"][name]["value"] for _, cr in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (pv - cv) > 0 for pv, cv in zip(p, c))
        rows.append((name, quartiles(p), quartiles(c), wins))
    return rows


def raw_summary(pairs: list) -> list:
    """(name, parent median, change median) of each unscaled median and of
    the speed factor, over ``pairs`` whose records all carry them."""
    if not all("raw" in r for pair in pairs for r in pair):
        return []
    names = list(pairs[0][0]["raw"])
    side = [[{**r["raw"], "speed": r["speed"]} for r in rs] for rs in zip(*pairs)]
    return [(name, *(statistics.median(v[name] for v in runs) for runs in side))
            for name in names + ["speed"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "COUNT"), required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--record", type=Path, help="write every run's JSON line here")
    args = ap.parse_args(argv)
    metrics = end_to_end_metrics()
    names = workloads(args.workload)
    first, count = args.seeds
    pairs = {w: [] for w in names}
    log = args.record.open("w") if args.record else None
    try:
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in names:
                runs = {}
                for side in order:
                    runs[side] = run_once(getattr(args, side), w, first + k, args.seconds)
                    if log:
                        log.write(json.dumps({"workload": w, "pair": k, "seed": first + k,
                                              "side": side, "first": order[0],
                                              **runs[side]}) + "\n")
                        log.flush()
                pairs[w].append((runs["parent"], runs["change"]))
                print(f"{w} seed {first + k}, {order[0]} first: " + "  ".join(
                    f"{name} {runs['parent']['metrics'][name]['value']:.6g} -> "
                    f"{runs['change']['metrics'][name]['value']:.6g}" for name, _ in metrics))
    except RuntimeError as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 1
    finally:
        if log:
            log.close()
    for w in names:
        print(f"{w}: {len(pairs[w])} pairs, seeds {first}-{first + count - 1}")
        print(f"  {'metric':14s} {'parent q1':>11s} {'median':>11s} {'q3':>11s} "
              f"{'change q1':>11s} {'median':>11s} {'q3':>11s} {'parent IQR':>11s}  change wins")
        for name, pq, cq, wins in summary(pairs[w], metrics):
            print(f"  {name:14s} " + " ".join(f"{v:11.6g}" for v in (*pq, *cq, pq[2] - pq[0]))
                  + f"  {wins}/{len(pairs[w])}")
        raw = raw_summary(pairs[w])
        if raw:
            print(f"  {'unscaled':14s} {'parent median':>13s} {'change median':>13s}")
            for name, pm, cm in raw:
                print(f"  {name:14s} {pm:13.6g} {cm:13.6g}")
    failed = sum(r["failed"] for ps in pairs.values() for pair in ps for r in pair)
    if failed:
        print(f"  {failed} failed invocations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
