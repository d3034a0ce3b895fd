#!/usr/bin/env python3
"""Drive every CLI pipeline into ./out and print the merged summary.

Usage: python scripts/full_pipeline.py [outdir]
Override any default by editing ``COMMANDS`` below; artifacts are byte
deterministic, so re-runs are diffable experiment records.  The sweep runs
twice: with mu = 1 into outdir, and with mu=quadratic:0.1 (the variable-mu
path of the characteristic integrals) into outdir/sweep-quadratic.
``scripts/pipeline_pairs.py`` times one of these commands from the same table.
"""

import os
import sys
from pathlib import Path

SWEEP = ["sweep", "a=0.5", "h=0.015625", "eps_list=1 0.3 0.1 0.03 0.01 0", "alpha=0.4"]
# name -> (CLI arguments, subdirectory of outdir it writes into), in run order
COMMANDS = {
    "eigen": (["eigen", "a=-0.5 0 0.5", "h=0.015625", "aux_a=0.5 -1", "r_list=1 4 16 64"], ""),
    "sweep": (SWEEP, ""),
    "sweep-quadratic": (SWEEP + ["mu=quadratic:0.1"], "sweep-quadratic"),
    "certify": (["certify"], ""),
    "solve": (["solve", "a=0.5"], ""),
    "fermi-demo": (["fermi-demo", "radius=2", "a=0.5", "h=0.03125"], ""),
    "report": (["report"], ""),
}


def main() -> int:
    from degenlab.cli import run        # here, so that the table reads without the package

    out = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for name, (argv, sub) in COMMANDS.items():
        (out / sub).mkdir(exist_ok=True)
        os.environ["DEGENLAB_OUT"] = str(out / sub)
        codes[name] = run(argv)
    print()
    for name, code in codes.items():
        print(f"{name:12s} exit={code}")
    print((out / "summary.csv").read_text())
    return 1 if any(codes.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
