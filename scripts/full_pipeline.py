#!/usr/bin/env python3
"""Drive every CLI pipeline into ./out and print the merged summary.

Usage: python scripts/full_pipeline.py [outdir]
Override any default by editing the argument lists below; artifacts are byte
deterministic, so re-runs are diffable experiment records.  The sweep runs
twice: with mu = 1 into outdir, and with mu=quadratic:0.1 (the variable-mu
path of the characteristic integrals) into outdir/sweep-quadratic.
"""

import os
import sys
from pathlib import Path

from degenlab.cli import run


def main() -> int:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out.mkdir(parents=True, exist_ok=True)
    os.environ["DEGENLAB_OUT"] = str(out)
    codes = {}
    codes["eigen"] = run(["eigen", "a=-0.5 0 0.5", "h=0.015625",
                          "aux_a=0.5 -1", "r_list=1 4 16 64"])
    sweep = ["sweep", "a=0.5", "h=0.015625", "eps_list=1 0.3 0.1 0.03 0.01 0", "alpha=0.4"]
    codes["sweep"] = run(sweep)
    (out / "sweep-quadratic").mkdir(exist_ok=True)
    os.environ["DEGENLAB_OUT"] = str(out / "sweep-quadratic")
    codes["sweep-quadratic"] = run(sweep + ["mu=quadratic:0.1"])
    os.environ["DEGENLAB_OUT"] = str(out)
    codes["certify"] = run(["certify"])
    codes["solve"] = run(["solve", "a=0.5"])
    codes["fermi-demo"] = run(["fermi-demo", "radius=2", "a=0.5", "h=0.03125"])
    codes["report"] = run(["report"])
    print()
    for name, code in codes.items():
        print(f"{name:12s} exit={code}")
    print((out / "summary.csv").read_text())
    return 1 if any(codes.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
