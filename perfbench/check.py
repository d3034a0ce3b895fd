"""Output check for every benchmark invocation.

``extract`` reads the artifacts an invocation left in its ``DEGENLAB_OUT``
and returns the values the check compares; ``make_reference.py`` stores the
same extraction, made at the seed commit, in ``reference.json``.  ``check``
returns a list of problems: an empty list means the invocation is correct.

Values are compared with tolerances derived from the numerical contract that
produced them, never byte for byte, so a faster solver or quadrature that
keeps the contract passes and a wrong answer fails:

* ``SOLVER_RTOL``: the linear solves stop at relative residual 1e-10; the
  allowance of 1e3 covers the conditioning of the h = 1/64 systems.  Jacobi-CG
  and sparse LU give sweep seminorms that differ by 1.4e-10 relative.
* ``SOLVE_ATOL``: discrete-mode recovery of the manufactured solution, the
  CLI's own bound on the solve errors.
* ``EIG_RTOL``: inverse iteration stops when lambda changes by EIG_TOL = 1e-10
  relative; the allowance of 100 covers slow convergence.
* ``QUAD_RTOL``: v_limit integrates at epsrel 1e-12; the identity for v'
  cancels about 2.5 digits.
* the gamma-rectangle witness is located by sampling, so it is matched in
  value and position only to the precision quoted for it (-3.47 near
  a = -17.9, t = 2.41).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from workloads import WORKLOADS, reference_key

SOLVER_RTOL = 1e-7
SOLVE_ATOL = 1e-8
EIG_RTOL = 1e-8
QUAD_RTOL = 1e-8
V_MIN_T_ATOL = 1e-6
WITNESS_VALUE_ATOL = 0.05
WITNESS_A_ATOL = 0.5
WITNESS_T_ATOL = 0.05

CERTIFY_VERDICTS = {"v_above_one_minus_two_over_t2": "yes",
                    "gamma_rectangle_v_bound": "no",
                    "gamma_rectangle_exact": "yes"}


def _g(x: float) -> str:
    return f"{x:g}"


def _table(path: Path) -> list:
    """Rows of a CLI CSV artifact: comment lines and the column header dropped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _records(path: Path) -> dict:
    """``target key=value ...`` lines of certify.txt, keyed by target."""
    out = {}
    for ln in path.read_text().splitlines():
        if not ln or ln.startswith("#"):
            continue
        head, *fields = ln.split()
        out[head] = dict(f.split("=", 1) for f in fields)
    return out


def extract(workload: str, outdir: Path, reports: list) -> dict:
    """The checked values of one invocation.  ``reports`` holds the
    CertificationReports that ``verify_gamma_rectangle`` returned, because the
    witness of a failed certificate is not written to certify.txt."""
    if workload == "sweep-quadratic":
        rows = _table(outdir / "sweep.csv")
        plot = _table(outdir / "sweep_plot.dat")
        return {"eps": [float(r[0]) for r in rows],
                "seminorm": [float(r[1]) for r in rows],
                "sup_norm": [float(r[2]) for r in rows],
                "plot_seminorm": [float(r[1]) for r in plot],
                "verdict": (outdir / "sweep_verdict.txt").read_text().splitlines()[-1]}
    if workload == "solve-fine":
        rows = _table(outdir / "solve_orders.csv")
        field = np.array(_table(outdir / "solve_field.csv"), dtype=float)
        return {"h": [float(r[0]) for r in rows],
                "max_error": [float(r[1]) for r in rows],
                "field": field}
    if workload == "eigen":
        return {"lambda": {f"{r[0]}@{r[2]}": float(r[4])
                           for r in _table(outdir / "eigen.csv")}}
    recs = _records(outdir / "certify.txt")
    witness = [r for r in reports if r.target_id == "gamma_rectangle_v_bound"]
    out = {"verdicts": {k: v.get("pass") for k, v in recs.items() if "pass" in v},
           "v_minimum_t": float(recs["v_minimum"]["t"]),
           "v_minimum_value": float(recs["v_minimum"]["value"]),
           "v_at_5.1": float(recs["v_at_5.1"]["value"]),
           "v_prime_at_5.1": float(recs["v_prime_at_5.1"]["value"])}
    if witness:
        w = witness[-1]
        out["witness"] = {"value": float(w.min_sample), "a": float(w.argmin[0]),
                          "t": float(w.argmin[1])}
    return out


def _close(name: str, got, want, rtol: float = 0.0, atol: float = 0.0) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: {got.size} values, expected {want.size}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return [f"{name}[{i}] = {got.flat[i]!r}, reference {want.flat[i]!r} "
                f"(rtol {rtol:g}, atol {atol:g})"]
    return []


def check(workload: str, params: dict, code: int, outdir: Path, reports: list,
          reference: dict) -> list:
    """Problems found in one invocation's exit code and artifacts."""
    want_code = WORKLOADS[workload].expected_exit
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    try:
        got = extract(workload, outdir, reports)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable artifacts: {type(e).__name__}: {e}"]
    ref = reference[workload][reference_key(workload, params)]
    return CHECKS[workload](params, got, ref)


def _check_sweep(params, got, ref) -> list:
    out = _close("eps", got["eps"], [float(e) for e in ref["eps"]])
    out += _close("seminorm", got["seminorm"], ref["seminorm"], rtol=SOLVER_RTOL)
    out += _close("sup_norm", got["sup_norm"], ref["sup_norm"], rtol=SOLVER_RTOL)
    out += _close("sweep_plot seminorm", got["plot_seminorm"], ref["seminorm"],
                  rtol=SOLVER_RTOL)
    if not got["verdict"].rstrip().endswith("=> PASS"):
        out.append(f"sweep verdict is not PASS: {got['verdict'].strip()}")
    return out


def _check_solve(params, got, ref) -> list:
    out = _close("h", got["h"], ref["h"])
    out += _close("max_error", got["max_error"], ref["max_error"], atol=SOLVE_ATOL)
    field = got["field"]
    if field.shape != (ref["cells"], 3):
        return out + [f"solve_field has shape {field.shape}, expected ({ref['cells']}, 3)"]
    x, y, u = field.T
    b = 1.0 - params["a"]
    exact = np.sign(y) * np.abs(y) ** b * (1.0 - x * x)
    dev = float(np.max(np.abs(u - exact)))
    if not dev <= SOLVE_ATOL:
        out.append(f"solve_field deviates from the manufactured solution by {dev:.3e}")
    return out


def _eigen_keys(params) -> list:
    keys = [f"trace[b={_g(a)}]@0" for a in params["a"]]
    keys += [f"trace[b={_g(a - 2.0)}]@0" for a in (0.5, -1.0)]
    keys.append("hardy[w=1]@0")
    keys += [f"lambda_r[a=0.5]@{_g(r)}" for r in (1, 4, 16, 64)]
    return keys


def _check_eigen(params, got, ref) -> list:
    keys = _eigen_keys(params)
    if sorted(got["lambda"]) != sorted(keys):
        return [f"eigen rows {sorted(got['lambda'])}, expected {sorted(keys)}"]
    return _close("lambda " + " ".join(keys), [got["lambda"][k] for k in keys],
                  [ref["lambda"][k] for k in keys], rtol=EIG_RTOL)


def _check_certify(params, got, ref) -> list:
    want = {f"phi_bound[a={_g(a)}]": "yes" for a in params["phi_a"]}
    want.update(CERTIFY_VERDICTS)
    out = []
    if got["verdicts"] != want:
        out.append(f"certificate verdicts {got['verdicts']}, expected {want}")
    out += _close("v_minimum t", got["v_minimum_t"], ref["v_minimum_t"], atol=V_MIN_T_ATOL)
    for k in ("v_minimum_value", "v_at_5.1", "v_prime_at_5.1"):
        out += _close(k, got[k], ref[k], rtol=QUAD_RTOL)
    w = got.get("witness")
    if w is None:
        return out + ["no gamma_rectangle_v_bound report was returned"]
    out += _close("witness value", w["value"], ref["witness"]["value"], atol=WITNESS_VALUE_ATOL)
    out += _close("witness a", w["a"], ref["witness"]["a"], atol=WITNESS_A_ATOL)
    out += _close("witness t", w["t"], ref["witness"]["t"], atol=WITNESS_T_ATOL)
    return out


CHECKS = {"sweep-quadratic": _check_sweep, "solve-fine": _check_solve,
          "eigen": _check_eigen, "certify": _check_certify}


def reference_entry(workload: str, got: dict) -> dict:
    """The part of an extraction stored in reference.json."""
    if workload == "solve-fine":
        return {"h": got["h"], "max_error": got["max_error"], "cells": len(got["field"])}
    if workload == "sweep-quadratic":
        return {k: got[k] for k in ("eps", "seminorm", "sup_norm")}
    if workload == "certify":
        return {k: v for k, v in got.items() if k != "verdicts"}
    return got
