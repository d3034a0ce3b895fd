#!/usr/bin/env python3
"""Run scripts/full_pipeline.py from two checkouts and compare the artifacts.

Usage: python scripts/diff_pipeline.py PARENT [CHANGE]

PARENT and CHANGE are checkout roots (CHANGE defaults to this script's);
each pipeline runs on its tree's ``src`` into a temporary directory.  Files
are listed as identical or differing, a differing one with the largest
relative deviation |p - c| / max(|p|, |c|) between numbers in the same place
(inf where other text differs).  Exit 0 when every deviation is at most
1e-12 and the pipelines' exit codes agree, else 1."""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 1e-12
_TOKEN = re.compile(r"[,\s=()\[\]]+")


def run_pipeline(tree: Path, out: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, str(tree / "scripts" / "full_pipeline.py"),
                           str(out)], cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def deviation(a: str, b: str) -> float:
    """Largest relative deviation between the numbers of two texts."""
    ta, tb = _TOKEN.split(a), _TOKEN.split(b)
    if len(ta) != len(tb):
        return math.inf
    worst = 0.0
    for x, y in zip(ta, tb):
        if x != y:
            try:
                p, c = float(x), float(y)
            except ValueError:
                return math.inf
            dev = abs(p - c) / max(abs(p), abs(c))
            worst = max(worst, dev) if dev == dev else math.inf     # nan, inf
    return worst


def compare(parent: Path, change: Path) -> tuple:
    """(identical files, {differing file: deviation}) of two output trees."""
    same, differ = [], {}
    for f in sorted({p.relative_to(d) for d in (parent, change)
                     for p in d.rglob("*") if p.is_file()}):
        a, b = parent / f, change / f
        if not (a.is_file() and b.is_file()):
            differ[f] = math.inf
        elif a.read_bytes() == b.read_bytes():
            same.append(f)
        else:
            differ[f] = deviation(a.read_text(), b.read_text())
    return same, differ


def main(argv: list) -> int:
    trees = [Path(t).resolve() for t in argv[1:3]] + [Path(__file__).resolve().parents[1]]
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        codes = [run_pipeline(t, o) for t, o in zip(trees, outs)]
        same, differ = compare(*outs)
    print(f"pipeline exit codes: parent {codes[0]}, change {codes[1]}")
    print(f"identical: {len(same)} files")
    print("".join(f"  {f}\n" for f in same), end="")
    print(f"differ: {len(differ)} files (largest relative deviation)")
    print("".join(f"  {f}  {dev:.3g}\n" for f, dev in differ.items()), end="")
    return 0 if codes[0] == codes[1] and all(d <= TOLERANCE for d in differ.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
