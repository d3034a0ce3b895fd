"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 perfbench/selftest.py            # all workloads, about a minute
    python3 perfbench/selftest.py certify    # only the named workloads

* ``BENCHMARK.json`` names the workloads and metrics this directory reports.
* Two traced runs with the same seed give identical counters, and the layer
  self times plus ``cli.self_s`` account for the traced wall time.
* The output check accepts the artifacts of a real invocation, also after a
  change far inside the tolerance, and rejects them after one value is moved
  just outside it, after a verdict flips, or with an unexpected exit code.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from check import check  # noqa: E402
from layers import MODULES, PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SELF_TIME_SHARE = 0.02


def test_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def _traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", "7", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, out.stdout
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_traced_counters_repeat(workload: str):
    first, second = _traced(workload), _traced(workload)
    counts = [n for n, unit in PER_LAYER if unit == "count"]
    diff = {n: (first[n], second[n]) for n in counts if first[n] != second[n]}
    assert not diff, f"{workload}: counters differ between runs: {diff}"
    for m in (first, second):
        accounted = sum(m[f"{mod}.self_s"] for mod in MODULES)
        assert abs(accounted - m["trace.wall_s"]) <= SELF_TIME_SHARE * m["trace.wall_s"], \
            f"{workload}: self times {accounted} against traced wall {m['trace.wall_s']}"


def _edit(path: Path, pattern: str, fn) -> None:
    """Replace the first number matched by group 1 of ``pattern`` by fn(number)."""
    text = path.read_text()
    m = re.search(pattern, text, flags=re.M)
    assert m, f"{pattern!r} not found in {path.name}"
    new = f"{fn(float(m.group(1))):.12g}"
    path.write_text(text[:m.start(1)] + new + text[m.end(1):])


# (file, regex whose group 1 is one checked value, relative or absolute change
# just outside the check's tolerance)
PERTURB = {
    "sweep-quadratic": ("sweep.csv", r"^0\.1,([^,]+),", lambda x: x * (1 + 1e-6)),
    "solve-fine": ("solve_field.csv", r"^[^#x][^,]*,[^,]*,(\S+)$", lambda x: x + 1e-6),
    "eigen": ("eigen.csv", r"^trace\[b=0\],[^,]*,[^,]*,[^,]*,([^,]+),", lambda x: x * (1 + 1e-7)),
    "certify": ("certify.txt", r"^v_prime_at_5\.1 value=(\S+)$", lambda x: x * (1 + 1e-7)),
}
HARMLESS = {
    "sweep-quadratic": ("sweep.csv", r"^0\.1,([^,]+),", lambda x: x * (1 + 1e-9)),
    "eigen": ("eigen.csv", r"^trace\[b=0\],[^,]*,[^,]*,[^,]*,([^,]+),", lambda x: x * (1 + 1e-10)),
}


def test_check_rejects(workload: str, runner_cls):
    wl = WORKLOADS[workload]
    params = wl.params(DEFAULT_SEED, 0, 0)
    reference = json.loads((HERE / "reference.json").read_text())
    scratch = ROOT / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = runner_cls(workload, Path(tmp), reference)
        outdir, code, reports = runner.keep_outputs(params)

        def problems(c=code):
            return check(workload, params, c, outdir, reports, reference)

        assert problems() == [], problems()
        assert problems(code + 1), "an unexpected exit code was accepted"
        if workload in HARMLESS:
            name, pattern, fn = HARMLESS[workload]
            _edit(outdir / name, pattern, fn)
            assert problems() == [], f"a change inside the tolerance was rejected: {problems()}"
        name, pattern, fn = PERTURB[workload]
        _edit(outdir / name, pattern, fn)
        assert problems(), f"{workload}: a perturbed {name} was accepted"
        if workload == "certify":
            _edit(outdir / name, pattern, lambda x: x / (1 + 1e-7))
            assert problems() == [], problems()
            text = (outdir / name).read_text()
            (outdir / name).write_text(text.replace("pass=yes", "pass=no", 1))
            assert problems(), "a flipped certificate verdict was accepted"


def main() -> int:
    from worker import Runner
    names = sys.argv[1:] or list(WORKLOADS)
    test_benchmark_json()
    print("BENCHMARK.json matches", flush=True)
    for name in names:
        test_check_rejects(name, Runner)
        print(f"{name}: output check accepts, and rejects perturbed outputs", flush=True)
        test_traced_counters_repeat(name)
        print(f"{name}: traced counters repeat; self times account for wall time",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
