#!/usr/bin/env python3
"""Run scripts/full_pipeline.py from two checkouts and compare the artifacts.

Usage: python scripts/diff_pipeline.py PARENT [CHANGE]

PARENT and CHANGE are checkout roots (CHANGE defaults to this script's);
each pipeline runs on its tree's ``src`` into a temporary directory.  Files
are listed as identical or differing, a differing one with the largest
relative deviation |p - c| / max(|p|, |c|) between numbers in the same place
(inf where other text differs), the line and column where it is, and the
largest absolute deviation |p - c|, so that rounding noise in one column can
be told from a change: a column of rounding-level values, such as errors of
1e-15, deviates by O(1) relative but by O(1e-15) absolute.  Exit 0 when
every deviation is at most 1e-12 and the pipelines' exit codes agree,
else 1."""

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOLERANCE = 1e-12
_TOKEN = re.compile(r"([,\s=()\[\]]+)")      # a separator run, kept by re.split


def run_pipeline(tree: Path, out: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, str(tree / "scripts" / "full_pipeline.py"),
                           str(out)], cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def _where(text: str, parts: list, k: int) -> str:
    """'line N, column C' of token parts[k] of text.  C is the token's field
    in the CSV header line (the first line not starting with '#'), else the
    key of a key=value pair, else the token's position on its line."""
    before = "".join(parts[:k])
    number = before.count("\n") + 1
    lines = text.splitlines()
    line, start = lines[number - 1], len(before) - before.rfind("\n") - 1
    header = next((h for h in lines if not h.startswith("#")), "")
    if (re.fullmatch(r"\w+(,\w+)+", header) and number > lines.index(header) + 1
            and line.count(",") == header.count(",")):
        column = header.split(",")[line[:start].count(",")]
    elif k >= 2 and "=" in parts[k - 1]:
        column = parts[k - 2]
    else:
        column = f"#{sum(1 for t in _TOKEN.split(line[:start])[::2] if t) + 1}"
    return f"line {number}, column {column}"


def deviation(a: str, b: str) -> tuple:
    """(largest relative deviation between the numbers of two texts, where in
    the first text it is, or None when they hold the same numbers, largest
    absolute deviation)."""
    pa, pb = _TOKEN.split(a), _TOKEN.split(b)
    if len(pa) != len(pb):
        la, lb = a.splitlines(), b.splitlines()
        number = next((i for i, (x, y) in enumerate(zip(la, lb), 1) if x != y),
                      min(len(la), len(lb)) + 1)
        return math.inf, f"line {number}", math.inf
    worst, at, absolute = 0.0, None, 0.0
    for k in range(0, len(pa), 2):
        if pa[k] != pb[k]:
            try:
                p, c = float(pa[k]), float(pb[k])
            except ValueError:
                return math.inf, _where(a, pa, k), math.inf
            diff = abs(p - c) if p != c else 0.0                        # inf against inf
            diff = diff if diff == diff else math.inf                   # nan, inf
            dev = diff / max(abs(p), abs(c)) if 0.0 < diff < math.inf else diff
            if at is None or dev > worst:
                worst, at = dev, k
            absolute = max(absolute, diff)
    return worst, (None if at is None else _where(a, pa, at)), absolute


def compare(parent: Path, change: Path) -> tuple:
    """(identical files, {differing file: (deviation, where, absolute
    deviation)}) of two output trees; where is None for a file that only one
    tree holds."""
    same, differ = [], {}
    for f in sorted({p.relative_to(d) for d in (parent, change)
                     for p in d.rglob("*") if p.is_file()}):
        a, b = parent / f, change / f
        if not (a.is_file() and b.is_file()):
            differ[f] = (math.inf, None, math.inf)
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
    print(f"differ: {len(differ)} files (largest relative deviation, largest absolute "
          "deviation, and where the relative one is)")
    print("".join(f"  {f}  {dev:.3g}  abs {ab:.3g}" + (f"  {at}" if at else "") + "\n"
                  for f, (dev, at, ab) in differ.items()), end="")
    return 0 if codes[0] == codes[1] and all(d <= TOLERANCE for d, *_ in differ.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
