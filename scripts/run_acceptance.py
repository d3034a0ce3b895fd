#!/usr/bin/env python3
"""Run the acceptance gate and show the one-line-per-criterion report.

Runs from any directory: pytest starts in the repository root."""

import subprocess
import sys
from pathlib import Path


def main() -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s",
         "--no-header", "-rN"],
        cwd=Path(__file__).resolve().parents[1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
