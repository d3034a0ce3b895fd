"""Record the reference outputs that the benchmark's output check compares to.

Runs every parameter set a seed can draw (``workloads.all_params``) once and
stores the checked values in ``reference.json``.  Run it from the root of a
checkout of the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It refuses to write when any invocation exits with a code other than its
workload's expected one, or when a certificate verdict differs from the
expected one, so every drawable parameter set passes the CLI's own checks.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from check import CERTIFY_VERDICTS, extract, reference_entry  # noqa: E402
from worker import Runner  # noqa: E402
from workloads import WORKLOADS, all_params, reference_key  # noqa: E402


def main() -> int:
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    ref = {"commit": commit}
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, wl in WORKLOADS.items():
            runner = Runner(name, Path(tmp), {})
            ref[name] = {}
            for params in all_params(name):
                outdir, code, reports = runner.keep_outputs(params)
                if code != wl.expected_exit:
                    print(f"{name} {params}: exit {code}", file=sys.stderr)
                    return 1
                got = extract(name, outdir, reports)
                if name == "certify":
                    bad = {k: v for k, v in got["verdicts"].items()
                           if v != CERTIFY_VERDICTS.get(k, "yes")}
                    if bad:
                        print(f"certify verdicts {bad}", file=sys.stderr)
                        return 1
                ref[name][reference_key(name, params)] = reference_entry(name, got)
                print(name, params, "ok", flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
