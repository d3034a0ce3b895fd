"""degenlab benchmark: time one workload end to end, or trace it per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-quadratic --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py             # every workload, one after another

Workloads (see ``workloads.py``): sweep-quadratic, solve-fine, eigen, certify.
Each invocation is an in-process ``degenlab.cli.run`` call with ``key=value``
arguments generated from the seed, in its own temporary ``DEGENLAB_OUT``, and
every invocation's exit code and artifacts are checked (``check.py``).

``--trace 0`` prints the end-to-end metrics, measured without tracing.  The
times are in seconds at a reference machine speed: each measured time is
multiplied by the speed that ``worker.calibrate`` measured next to it (see
``worker.py``), because on a shared machine the speed drifts by more than
the bounds over minutes.  The record keeps the raw times too.

* ``wall_s``, ``cpu_s``: median wall and user+system CPU time of one warm
  invocation;
* ``cold_wall_s``: median wall time of the first invocation in a fresh
  process, over ``COLD_PROBES`` processes that make only that invocation and
  the main worker process;
* ``setup_s``: median time from the start of a fresh process until
  ``degenlab.cli`` is imported, over the same processes;
* ``peak_rss_mb``: peak resident set size of the main worker process;
* ``failed_frac``: invocations that failed (exit code or output check)
  over invocations attempted.  It is printed with the others but carried in
  the JSON line as ``failed``/``attempted``, because a metric there must not
  read 0.

``--trace 1`` runs the same inputs with and without the tracer of
``layers.py`` and prints the per-layer metrics of ``layers.PER_LAYER``.

After each workload's report, one line of standard output holds a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, baseline, every invocation, spans) goes to
``.perfbench-out/results/``; nothing is written outside the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COLD_PROBES = 3
TIME_LIMIT_S = 170.0
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("cold_wall_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(RuntimeError):
    pass


def _environment(nproc: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DEGENLAB_OUT"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _run(cmd: list, env: dict, deadline: float) -> None:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[:2]))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired as e:      # subprocess.run killed and reaped it
        raise BenchError(f"{cmd[1]} timed out after {left:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")


def _worker(args: list, env: dict, deadline: float, scratch: str) -> dict:
    """Run worker.py in a fresh process; its measurements plus ``setup_s``."""
    result = Path(scratch) / "worker.json"
    t0 = time.perf_counter()
    _run([sys.executable, str(HERE / "worker.py"), *args, "--root", str(ROOT),
          "--scratch", scratch, "--result", str(result)], env, deadline)
    w = json.loads(result.read_text())
    result.unlink()
    w["setup_s"] = w["t_imported"] - t0
    return w


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "degenlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _commit():
    if not (ROOT / ".git").exists():     # git would search the parent directories
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = _environment(nproc)
    out = ROOT / ".perfbench-out"
    (out / "results").mkdir(parents=True, exist_ok=True)
    stamp = f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=out) as scratch:
        probes = [] if trace else [
            _worker(common + ["--stream", str(k), "--cold-only"], env, deadline, scratch)
            for k in range(1, COLD_PROBES + 1)]
        w = _worker(common + ["--stream", "0"], env, deadline, scratch)
    workers = probes + [w]

    invs = [i for x in workers for i in x["invocations"]]
    failed = [i for i in invs if i["problems"]]
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": {
            "nproc": nproc, "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "python": w["python"], "numpy": w["numpy"], "scipy": w["scipy"],
            "commit": _commit(), "source_sha256": _source_digest(),
        },
        "attempted": len(invs), "failed": len(failed),
        "invocations": invs,
    }
    if trace:
        layer = w["layer"]
        rec["metrics"] = {name: (layer.get(name, 0), unit) for name, unit in PER_LAYER}
        rec["counter_spread"] = w["counter_spread"]
        rec["samples"] = {"traced": w["traced_invocations"]}
        rec["spans"] = w["spans"]
    else:
        warm = w["invocations"][1:]
        cold = [x["invocations"][0] for x in workers]
        samples = {
            "wall_s": [(i["wall_s"], i["speed"]) for i in warm],
            "cpu_s": [(i["cpu_s"], i["speed"]) for i in warm],
            "cold_wall_s": [(i["wall_s"], i["speed"]) for i in cold],
            "setup_s": [(x["setup_s"], x["setup_speed"]) for x in workers],
        }
        values = {k: statistics.median(t * sp for t, sp in v) for k, v in samples.items()}
        values["peak_rss_mb"] = w["peak_rss_mb"]
        rec["metrics"] = {name: (values[name], unit) for name, unit in END_TO_END}
        rec["raw"] = {k: statistics.median(t for t, _ in v) for k, v in samples.items()}
        rec["speed"] = statistics.median(sp for v in samples.values() for _, sp in v)
        rec["samples"] = {"warm": len(warm), "cold": len(cold), "setup": len(workers)}
    base = json.loads((HERE / "baseline.json").read_text()) \
        if (HERE / "baseline.json").exists() else {}
    rec["baseline"] = base.get("workloads", {}).get(workload, {})
    rec["baseline_commit"] = base.get("commit")
    (out / "results" / f"{stamp}.json").write_text(json.dumps(rec, indent=1))
    return rec


def report(rec: dict) -> None:
    env = rec["environment"]
    print(f"perfbench workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']:g} trace={rec['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("samples " + " ".join(f"{k}={v}" for k, v in rec["samples"].items()))
    if "raw" in rec:
        print(f"machine speed {rec['speed']:.3f} of the reference; unscaled medians "
              + " ".join(f"{k}={v:.6g}" for k, v in rec["raw"].items()))
    base = rec["baseline"]
    for name, (value, unit) in rec["metrics"].items():
        b = base.get(name)
        tail = f"  (baseline {b:.6g} at {rec['baseline_commit']})" if b is not None else ""
        print(f"  {name:40s} {value:14.6g} {unit}{tail}")
    if not rec["trace"]:
        print(f"  {'failed_frac':40s} {rec['failed'] / rec['attempted']:14.6g} ratio"
              f"  ({rec['failed']} of {rec['attempted']})")
    for k, v in rec.get("counter_spread", {}).items():
        print(f"  counter {k} differs between traced invocations by {v}")
    for inv in rec["invocations"]:
        for p in inv["problems"]:
            print(f"  FAILED invocation {inv['stream']}/{inv['index']}: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "degenlab" / "cli.py").is_file():
        print(f"no degenlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            rec = measure(name, args.seed, args.seconds, args.trace)
        except BenchError as e:
            print(f"benchmark failed: {e}", file=sys.stderr)
            return 1
        report(rec)
        print(json.dumps({
            "correct": rec["failed"] == 0,
            "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
