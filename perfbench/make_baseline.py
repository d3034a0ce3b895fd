"""Summarise run records into ``baseline.json``, the figures run.py prints beside
each metric.

    python3 perfbench/make_baseline.py

Reads every record in ``.perfbench-out/results/`` (written by run.py), takes
for each workload and metric the median over the runs, and records the
spread (first to third quartile over the median) and the run count.  All
records must come from one commit.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench-out" / "results"


def main() -> int:
    values = defaultdict(lambda: defaultdict(list))
    commits, envs = set(), set()
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text())
        env = rec["environment"]
        commits.add(env["commit"])
        envs.add(tuple(sorted((k, str(v)) for k, v in env.items() if k != "commit")))
        for name, (value, _) in rec["metrics"].items():
            values[rec["workload"]][name].append(value)
    if len(commits) != 1 or len(envs) != 1:
        print(f"records come from {len(commits)} commits and {len(envs)} environments",
              file=sys.stderr)
        return 1
    out = {"commit": commits.pop(), "environment": dict(envs.pop()),
           "workloads": {}, "spread": {}, "runs": {}}
    for wl, metrics in sorted(values.items()):
        out["workloads"][wl] = {k: statistics.median(v) for k, v in metrics.items()}
        out["spread"][wl] = {}
        for k, v in metrics.items():
            med = statistics.median(v)
            if len(v) >= 2 and med:
                q1, _, q3 = statistics.quantiles(v, n=4)
                out["spread"][wl][k] = (q3 - q1) / med
        out["runs"][wl] = {k: len(v) for k, v in metrics.items()}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
