"""Benchmark worker: one workload's invocations, in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and at this directory, and with the BLAS thread count capped.  It imports
``degenlab.cli``, runs the invocations of one workload as a closed loop with
one client (each in-process ``degenlab.cli.run`` call starts when the
previous one has returned and been checked), checks every invocation, and
writes its measurements as JSON to the path given by ``--result``.

Untraced run (``--trace 0``): invocation 0 is the cold one; with
``--cold-only`` the worker stops there.  Otherwise warm invocations follow
until the next one would end more than ``--seconds`` after the cold one
started, and there are at least ``MIN_WARM`` of them.

Traced run (``--trace 1``): every invocation repeats the inputs of
invocation 0.  After a cold untraced one, untraced and traced invocations
alternate, so the trace overhead is measured on identical work.

Machine speed: on a machine shared with other work (the baseline was taken
on two shared cores of a virtual machine) the speed a process gets drifts by
20-40 % over minutes.  ``calibrate``
times a fixed piece of work right after the import and after every
invocation; an invocation's ``speed`` is ``CAL_REF_S`` over the mean of the
calibrations on either side of it, and run.py reports each time multiplied
by its speed, that is, in seconds at the reference speed.
"""

import time

import degenlab.cli

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import degenlab  # noqa: E402
import degenlab.certify  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import quad  # noqa: E402
from scipy.special import hyp2f1  # noqa: E402

from check import check  # noqa: E402
from layers import Tracer, median_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_WARM = 3
CAL_REF_S = 0.135


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work degenlab spends its time in:
    adaptive scalar quadrature of a Python integrand and scalar special
    functions, a Python loop that builds lists from scalars, and array
    arithmetic.  It runs no degenlab code, so a change to the program cannot
    move it; only the speed the machine gives this process can."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(1500):
        acc += quad(lambda s: (1e-4 + s * s) ** -0.25, 0.0, 1.0 + 1e-3 * k, epsrel=1e-10)[0]
        acc += float(hyp2f1(0.5, -0.25, 1.5, -(0.01 * k) ** 2))
    ys = np.linspace(0.01, 1.0, 64)
    for i in range(1600):
        cells, vals = [], []
        for j in range(64):
            cells.append((i, j))
            vals.append(float(ys[j]) ** 0.5 / (1.0 + i))
        acc += sum(vals) / len(cells)
    grid = np.linspace(0.0, 1.0, 100_000)
    for _ in range(50):
        acc += float(np.sum(np.sqrt(grid + acc * 1e-12)))
    if not math.isfinite(acc):
        raise RuntimeError("calibration produced a non-finite sum")
    return time.perf_counter() - t0


class Runner:
    """Runs and checks invocations; owns the per-invocation output dirs."""

    def __init__(self, workload: str, scratch: Path, reference: dict, stream: int = 0):
        self.workload = workload
        self.stream = stream
        self.scratch = scratch
        self.reference = reference
        self.reports: list = []
        self.records: list = []
        self.calibration = calibrate()
        self.setup_speed = CAL_REF_S / self.calibration
        # The witness of a failed certificate is not in certify.txt, so the
        # check reads it from the returned reports.  The lookup happens at
        # call time so that a traced certify.verify_gamma_rectangle is used.
        reports = self.reports

        def verify_gamma_rectangle(*args, **kwargs):
            rep = degenlab.certify.verify_gamma_rectangle(*args, **kwargs)
            reports.append(rep)
            return rep
        degenlab.cli.verify_gamma_rectangle = verify_gamma_rectangle

    def params(self, seed: int, index: int) -> dict:
        return WORKLOADS[self.workload].params(seed, self.stream, index)

    def invoke(self, index: int, params: dict, traced: bool = False) -> dict:
        argv = WORKLOADS[self.workload].argv(params)
        outdir = Path(tempfile.mkdtemp(prefix="out-", dir=self.scratch))
        os.environ["DEGENLAB_OUT"] = str(outdir)
        self.reports.clear()
        error = None
        gc.collect()        # start each timed invocation from the same heap state
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = degenlab.cli.run(argv)
        except Exception as e:          # a crash is a failed invocation
            code, error = None, f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        before, self.calibration = self.calibration, calibrate()
        speed = CAL_REF_S / (0.5 * (before + self.calibration))
        try:
            problems = [f"raised {error}"] if error else check(
                self.workload, params, code, outdir, self.reports, self.reference)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        rec = {"stream": self.stream, "index": index, "argv": argv, "code": code, "wall_s": wall,
               "cpu_s": cpu, "speed": speed, "traced": traced, "problems": problems}
        self.records.append(rec)
        return rec

    def keep_outputs(self, params: dict) -> tuple:
        """Run once, unchecked and untimed, and leave the artifacts in place."""
        argv = WORKLOADS[self.workload].argv(params)
        outdir = Path(tempfile.mkdtemp(prefix="keep-", dir=self.scratch))
        os.environ["DEGENLAB_OUT"] = str(outdir)
        self.reports.clear()
        code = degenlab.cli.run(argv)
        return outdir, code, list(self.reports)


def run_untraced(runner: Runner, seed: int, seconds: float, cold_only: bool) -> dict:
    start = time.perf_counter()
    index = 0
    while True:
        last = runner.invoke(index, runner.params(seed, index))["wall_s"]
        index += 1
        if cold_only or (index > MIN_WARM and time.perf_counter() - start + last > seconds):
            return {}


def run_traced(runner: Runner, seed: int, seconds: float) -> dict:
    params = runner.params(seed, 0)
    tracer = Tracer()
    start = time.perf_counter()
    runner.invoke(0, params)
    per_inv, traced_walls, plain_walls, spans = [], [], [], []
    index, last = 1, 0.0
    while not per_inv or time.perf_counter() - start + last <= seconds:
        plain_walls.append(runner.invoke(index, params)["wall_s"])
        tracer.reset()
        tracer.invocation = index + 1
        tracer.install()
        try:
            rec = runner.invoke(index + 1, params, traced=True)
        finally:
            tracer.uninstall()
        per_inv.append(tracer.metrics())
        spans.extend(tracer.spans)
        traced_walls.append(rec["wall_s"])
        last = plain_walls[-1] + rec["wall_s"]
        index += 2
    layer = median_metrics(per_inv)
    layer["trace.wall_s"] = statistics.median(traced_walls)
    layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(plain_walls)
    # counters must repeat exactly between invocations of the same inputs
    spread = {}
    for k in layer:
        if k.endswith((".calls", ".iterations", ".iterations_max", ".samples")):
            vals = [m.get(k, 0) for m in per_inv]
            if max(vals) != min(vals):
                spread[k] = max(vals) - min(vals)
    return {"layer": layer, "counter_spread": spread, "traced_invocations": len(per_inv),
            "spans": spans}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--stream", type=int, default=0)
    ap.add_argument("--cold-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    loaded = Path(degenlab.__file__).resolve()
    if src not in loaded.parents:
        print(f"degenlab was imported from {loaded}, not from {src}", file=sys.stderr)
        return 2
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    runner = Runner(args.workload, Path(args.scratch), reference, args.stream)
    if args.trace:
        body = run_traced(runner, args.seed, args.seconds)
    else:
        body = run_untraced(runner, args.seed, args.seconds, args.cold_only)

    result = {
        "t_imported": T_IMPORTED, "setup_speed": runner.setup_speed,
        "invocations": runner.records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "degenlab": str(loaded),
        **body,
    }
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
