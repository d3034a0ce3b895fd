"""Command line entry point: every verification pipeline as a subcommand.

Subcommands: eigen, sweep, certify, solve, fermi-demo, report.  Each writes
CSV (or line-record) artifacts into the directory named by the DEGENLAB_OUT
environment variable (default: current directory).  Exit codes:

    0  every check passed
    1  a check failed
    2  usage or configuration error
    3  crash: an uncaught exception, whose traceback goes to stderr

Configuration is a flat key=value text file ('#' comments allowed); command
line overrides come as key=value pairs or --key value flags.  Outputs are
byte deterministic: floats are printed with 12 significant digits, newline
line endings, and the header comments record the tool version, a hash of the
keys set in the config file and overrides (not of the defaults), the grid
description, and tolerances.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (RhoWeight, _check_h_list, assemble, convergence_study,
                       manufactured_problem)
from .certify import (MIN_BUDGET, verify_gamma_rectangle, verify_phi_bound,
                      verify_v_inequality, v_minimum)
from .geometry import EmbeddedCurve, build_half_grid, fermi_mu
from .holder import (SLOPE_TOL, TAU, ProblemFamily, _check_mode, admissible_eps, epsilon_sweep,
                     measure_sweep, solve_family)
from .potentials import v_limit, v_limit_deriv
from .spectral import HalfDiskMesh, eigen_stability_sweep, hardy_quotient, trace_eigen
from .weights import WeightFamily


def fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@functools.cache
def _row_format(types: tuple) -> str:
    """One %-format for a row of values of these types, printing each as fmt."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types)


def _config_hash(cfg: dict) -> str:
    blob = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _load_config(path: str | None) -> dict:
    cfg: dict = {}
    if not path:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for line in p.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line (expected key=value): {line!r}")
        k, v = line.split("=", 1)
        cfg[k.strip()] = v.strip()
    return cfg


class ConfigError(ValueError):
    pass


def _outdir() -> Path:
    d = Path(os.environ.get("DEGENLAB_OUT", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write(path: Path, header: list, rows: list, columns: list):
    lines = [f"# degenlab {__version__}"]
    lines += [f"# {h}" for h in header]
    lines.append(",".join(columns))
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    path.write_text("\n".join(lines) + "\n")


def _number(key: str, tok: str, kind=float, valid=None):
    """``kind(tok)``, a float also as a fraction like 1/64.  A token that does
    not parse, a float that is not finite, or a value that fails ``valid`` =
    (predicate, what the command needs), is a ConfigError naming the key and
    the token."""
    try:
        if kind is float and "/" in tok:
            num, den = tok.split("/", 1)
            x = float(num) / float(den)
        else:
            x = kind(tok)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key}: {tok!r} is not a {kind.__name__}") from None
    if kind is float and not np.isfinite(x):
        raise ConfigError(f"{key}: {tok!r} is not finite")
    if valid is not None and not valid[0](x):
        raise ConfigError(f"{key}: {tok!r} is not {valid[1]}")
    return x


def _float(cfg: dict, key: str, default: str, valid=None) -> float:
    return _number(key, cfg.get(key, default), valid=valid)


def _floats(cfg: dict, key: str, default: str, valid=None) -> list:
    return [_number(key, tok, valid=valid)
            for tok in cfg.get(key, default).replace(",", " ").split()]


def _eps_list(cfg: dict, default: str) -> list:
    """At least two distinct eps >= 0: the sweep's trend fit needs two abscissae."""
    eps_list = _floats(cfg, "eps_list", default, (lambda e: e >= 0.0, "non-negative"))
    if len(eps_list) < 2:
        raise ConfigError(f"eps_list: {cfg['eps_list']!r} has fewer than two entries")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError(f"eps_list: {cfg['eps_list']!r} repeats an entry")
    return eps_list


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _accepted_by(build, what: str):
    """A ``valid`` pair whose predicate is the library's own rule: whether
    ``build(x)`` runs without a ValueError or a division by zero."""
    def ok(x) -> bool:
        try:
            build(x)
        except (ValueError, ZeroDivisionError):
            return False
        return True

    return ok, what


# The characteristic solution, the trace exponents and Phi_a all need a < 1
_BELOW_ONE = (lambda a: a < 1.0, "below 1")
_ALPHA = (lambda alpha: 0.0 < alpha <= 1.0, "in (0, 1]")      # a Holder exponent
_MESH_SPACING = _accepted_by(HalfDiskMesh.from_h, "1/n for an integer n >= 1")
_GRID_SPACING = _accepted_by(lambda h: build_half_grid(1, "half_rectangle", h),
                             "1/n for an integer n >= 4")
# the Fermi chart of the circle must cover the grid, up to its top y = 1
_CHART_RADIUS = _accepted_by(lambda r: fermi_mu(EmbeddedCurve.circle(r), 0.0, 1.0),
                             "a radius whose Fermi chart covers y <= 1")


def cmd_eigen(cfg: dict) -> int:
    # trace_eigen takes exponents b < 1: a itself, and aux_a - 2
    a_list = _floats(cfg, "a", "-0.5 0 0.5", _BELOW_ONE)
    h = _float(cfg, "h", "1/64", _MESH_SPACING)
    eps = _float(cfg, "eps", "0.0", (lambda e: e >= 0.0, "non-negative"))
    aux_list = _floats(cfg, "aux_a", "0.5 -1", (lambda a: a - 2.0 < 1.0, "below 3"))
    r_list = _floats(cfg, "r_list", "1 4 16 64", (lambda r: r > 0.0, "positive"))
    sweep_a = _float(cfg, "sweep_a", "0.5", (lambda a: -1.0 < a < 1.0, "in (-1, 1)"))
    rows = []
    ok = True
    for a in a_list:
        res = trace_eigen(a, eps, h)
        rows.append(res.csv_row())
        ok &= abs(res.lam - (1.0 - a)) <= 0.05
    for a in aux_list:
        res = trace_eigen(a - 2.0, eps, h)
        rows.append(res.csv_row())
        ok &= abs(res.lam - (3.0 - a)) <= 0.1
    hres = hardy_quotient(None, h)
    rows.append(hres.csv_row())
    ok &= hres.lam >= 0.25                   # conformity bound at every h
    if h <= 1.0 / 64 + 1e-12:
        ok &= hres.lam <= 0.40               # bracketed value at the reference h
    for r, lam, res in eigen_stability_sweep(sweep_a, r_list, h):
        rows.append((f"lambda_r[a={sweep_a:g}]", sweep_a, r, h, lam, res))
    header = [f"config-hash: {_config_hash(cfg)}",
              f"grid: half-disk polar mesh, h={fmt(h)}",
              "tolerances: trace 0.05, auxiliary 0.1, hardy [0.25,0.40]"]
    _write(_outdir() / "eigen.csv", header, rows,
           ["quotient_id", "a", "eps_or_r", "h", "lambda", "residual"])
    return 0 if ok else 1


def _sweep_family(a: float, mu_inv, name: str) -> ProblemFamily:
    """The swept odd problem: f = y^(1-a) cos(pi x), trace factor
    cos(pi x / 2) (1 + y^2 / 2)."""
    b = 1.0 - a

    def f(x, y):
        return (y ** b) * np.cos(np.pi * x)

    def trace_factor(x, y):
        return np.cos(np.pi * x / 2.0) * (1.0 + 0.5 * y * y)

    return ProblemFamily(a=a, f=f, trace_factor=trace_factor, mu_inverse=mu_inv, name=name)


def _family_from_cfg(cfg: dict) -> ProblemFamily:
    a = _float(cfg, "a", "0.5", _BELOW_ONE)
    mu_kind = cfg.get("mu", "const")
    if mu_kind == "const":
        mu_inv = None
    elif mu_kind == "quadratic" or mu_kind.startswith("quadratic:"):
        # c > -1 keeps mu^(-1) = 1 + c x^2 positive on |x| <= 1
        c = (_number("mu", mu_kind.split(":", 1)[1], valid=(lambda c: c > -1.0, "above -1"))
             if ":" in mu_kind else 0.1)

        def mu_inv(x, y, c=c):
            return 1.0 / (1.0 + c * x * x)
    else:
        raise ConfigError(f"mu: {mu_kind!r} is not const, quadratic or quadratic:<c>")
    return _sweep_family(a, mu_inv, f"a={a:g},mu={mu_kind}")


def cmd_sweep(cfg: dict) -> int:
    family = _family_from_cfg(cfg)
    eps_list = _eps_list(cfg, "1 0.3 0.1 0.03 0.01 0")
    alpha = _float(cfg, "alpha", "0.4", _ALPHA)
    h = _float(cfg, "h", "1/64", _GRID_SPACING)
    mode = cfg.get("mode", "ratio_c0")
    try:
        _check_mode(family, mode)
    except ValueError as exc:
        raise ConfigError(f"mode: {mode!r} is not usable: {exc}") from None
    rep = epsilon_sweep(family, eps_list, alpha, mode=mode, grid_h=h)
    rows = rep.per_eps
    header = [f"config-hash: {_config_hash(cfg)}",
              f"grid: half-rectangle cell-centered, h={fmt(h)}",
              f"family: {rep.family} mode={mode} alpha={fmt(alpha)}",
              f"tolerances: tau={fmt(TAU)} slope_tol={fmt(SLOPE_TOL)}"]
    _write(_outdir() / "sweep.csv", header, rows, ["eps", "seminorm", "sup_norm"])
    (_outdir() / "sweep_verdict.txt").write_text(rep.verdict() + "\n")
    plot_rows = [(e if e > 0 else min(x for x in eps_list if x > 0) / 10.0, s)
                 for e, s, _ in rows]
    _write(_outdir() / "sweep_plot.dat", ["two-column plot data: eps seminorm"],
           plot_rows, ["eps", "seminorm"])
    return 0 if rep.passed else 1


def cmd_certify(cfg: dict) -> int:
    # the v inequality takes half the budget
    budget = _number("budget", cfg.get("budget", "200000"), int,
                     (lambda b: b // 2 >= MIN_BUDGET, f"at least {2 * MIN_BUDGET}"))
    a_samples = _floats(cfg, "phi_a", "0.9 0.5 0 -1 -3 -10", _BELOW_ONE)
    lines = [f"# degenlab {__version__}",
             f"# config-hash: {_config_hash(cfg)}",
             "# certificates: target_id domain bound threshold pass status"]
    ok = True
    for rep in verify_phi_bound(a_samples, budget=budget):
        lines.append(rep.record())
        ok &= rep.passed
    rep = verify_v_inequality(budget=budget // 2)
    lines.append(rep.record())
    ok &= rep.passed
    t_star, vmin = v_minimum()
    lines.append(f"v_minimum t={fmt(t_star)} value={fmt(vmin)}")
    lines.append(f"v_at_5.1 value={fmt(v_limit(5.1))}")
    lines.append(f"v_prime_at_5.1 value={fmt(v_limit_deriv(5.1))}")
    repv = verify_gamma_rectangle(budget=budget, form="v_bound")
    lines.append(repv.record())
    ok &= repv.passed
    repw = verify_gamma_rectangle(budget=budget, form="exact")
    lines.append(repw.record())
    ok &= repw.passed
    (_outdir() / "certify.txt").write_text("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_solve(cfg: dict) -> int:
    a = _float(cfg, "a", "0.5", _BELOW_ONE)
    h_list = _floats(cfg, "h_list", "0.0625 0.03125 0.015625", _GRID_SPACING)
    try:
        _check_h_list(h_list)
    except ValueError as exc:
        raise ConfigError(f"h_list: {cfg['h_list']!r} is not usable: {exc}") from None
    b = 1.0 - a

    def u_exact(x, y):
        return np.copysign(np.abs(y) ** b, y) * (1.0 - x * x)

    def factory(h):
        grid = build_half_grid(1, "half_rectangle", h)
        fam = WeightFamily(a, 0.0)
        op = assemble(grid, RhoWeight(fam), parity="odd")
        rhs, exact = manufactured_problem(u_exact, op)
        return op, rhs, exact

    rows, rep = convergence_study(factory, h_list)
    ok = all(err <= 1e-8 for _, err, _ in rows)   # discrete mode recovers exactly
    header = [f"config-hash: {_config_hash(cfg)}",
              f"manufactured odd problem, a={fmt(a)}, discrete consistency mode",
              "tolerances: recovery at solver tolerance"]
    _write(_outdir() / "solve_orders.csv", header, rows, ["h", "max_error", "order"])
    grid = rep.field.grid
    frows = zip(grid.centers[:, 0].tolist(), grid.centers[:, 1].tolist(),
                rep.field.values.tolist())
    _write(_outdir() / "solve_field.csv",
           [f"config-hash: {_config_hash(cfg)}", f"grid: {grid.describe()}",
            f"tolerances: solver relative residual {fmt(rep.tolerance)}"],
           frows, ["x", "y", "value"])
    return 0 if ok else 1


def cmd_fermi_demo(cfg: dict) -> int:
    a = _float(cfg, "a", "0.5", _BELOW_ONE)
    radius = _float(cfg, "radius", "2.0", _CHART_RADIUS)
    h = _float(cfg, "h", "1/32", _GRID_SPACING)
    alpha = _float(cfg, "alpha", "0.4", _ALPHA)
    eps_text = cfg.get("eps_list", "1 0.1 0.01 0")
    eps_list = _eps_list(cfg, eps_text)
    if len(admissible_eps(eps_list, h, restricted="sqrt_eps")) < 2:
        raise ConfigError(f"eps_list: {eps_text!r} leaves fewer than two eps for the "
                          f"sqrt_eps table at h={fmt(h)}")
    curve = EmbeddedCurve.circle(radius, arc=2.0, theta0=-0.5)
    # 1) metric factor against the finite-difference Jacobian of the chart map
    step = 1e-5
    rows_mu = []
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 7):
        for y in (0.0, 0.25, 0.5):
            mu = fermi_mu(curve, float(t), float(y))
            zp = curve.point(float(t) + step, float(y))
            zm = curve.point(float(t) - step, float(y))
            jac = float(np.linalg.norm(zp - zm) / (2 * step))
            worst = max(worst, abs(mu - jac))
            rows_mu.append((float(t), float(y), mu, jac, abs(mu - jac)))
    ok = worst <= 1e-6
    _write(_outdir() / "fermi_mu_check.csv",
           [f"config-hash: {_config_hash(cfg)}",
            f"circle radius {fmt(radius)}, tolerance 1e-6"],
           rows_mu, ["t", "y", "mu", "jacobian_fd", "abs_diff"])

    # 2) quotient tables in the straightened chart, mu = fermi_mu = speed * (1 - y kappa)
    def mu_inv(x, y):
        return 1.0 / fermi_mu(curve, x, y)

    family = _sweep_family(a, mu_inv, f"fermi-circle[R={radius:g},a={a:g}]")
    solutions = solve_family(family, eps_list, grid_h=h)     # the three tables share them
    rep_c0 = measure_sweep(family, solutions, alpha, mode="ratio_c0")
    rep_c1r = measure_sweep(family, solutions, alpha, mode="ratio_c1", restricted="sqrt_eps")
    rep_c1u = measure_sweep(family, solutions, alpha, mode="ratio_c1")
    for name, rep in (("fermi_c0.csv", rep_c0),
                      ("fermi_c1_restricted.csv", rep_c1r),
                      ("fermi_c1_unrestricted.csv", rep_c1u)):
        _write(_outdir() / name,
               [f"config-hash: {_config_hash(cfg)}",
                f"grid: half-rectangle cell-centered, h={fmt(h)}",
                rep.verdict().splitlines()[0],
                f"restricted: {rep.restricted}",
                f"tolerances: tau={fmt(TAU)} slope_tol={fmt(SLOPE_TOL)}"],
               rep.per_eps,
               ["eps", "seminorm", "sup_norm"])
    ok &= rep_c0.passed and rep_c1r.passed   # unrestricted table is reported, not judged
    return 0 if ok else 1


def cmd_report(cfg: dict) -> int:
    out = _outdir()
    checks = []
    for name in ("eigen.csv", "sweep.csv", "certify.txt", "solve_orders.csv",
                 "fermi_mu_check.csv"):
        p = out / name
        checks.append((name, "present" if p.exists() else "missing"))
    all_present = all(v == "present" for _, v in checks)
    fails = []
    cert = out / "certify.txt"
    if cert.exists():
        for line in cert.read_text().splitlines():
            if "pass=no" in line:
                fails.append(line.split()[0])
    verdict = out / "sweep_verdict.txt"
    if verdict.exists() and "FAIL" in verdict.read_text():
        fails.append("sweep")
    rows = checks + [("failed_targets", ";".join(fails) if fails else "none")]
    _write(out / "summary.csv", [f"config-hash: {_config_hash(cfg)}"],
           rows, ["artifact", "status"])
    return 0 if (all_present and not fails) else 1


COMMANDS = {
    "eigen": cmd_eigen,
    "sweep": cmd_sweep,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "fermi-demo": cmd_fermi_demo,
    "report": cmd_report,
}


def run(argv) -> int:
    # no abbreviations: a trailing --h is a flag without its value, not --help
    parser = argparse.ArgumentParser(
        prog="degenlab", allow_abbrev=False,
        description="verification pipelines for degenerate/singular elliptic weights")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value file")
    parser.add_argument("overrides", nargs="*",
                        help="key=value pairs (or --key value flags) applied after "
                             "the config file")
    # pull --key value flag pairs out before argparse sees them
    kept: list = []
    flag_overrides: list = []
    i = 0
    argv = list(argv)
    while i < len(argv):
        tok = argv[i]
        if not tok.startswith("--") or tok.split("=", 1)[0] == "--config":
            kept.append(tok)            # argparse reads --config PATH and --config=PATH
            i += 1
        elif "=" in tok:
            flag_overrides.append(tok[2:])
            i += 1
        elif i + 1 < len(argv):
            flag_overrides.append(f"{tok[2:]}={argv[i + 1]}")
            i += 2
        else:
            kept.append(tok)
            i += 1
    try:
        # intermixed, so key=value overrides may also follow --config PATH
        ns = parser.parse_intermixed_args(kept)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        cfg = _load_config(ns.config)
        for tok in list(ns.overrides) + flag_overrides:
            if "=" not in tok:
                raise ConfigError(f"override must be key=value or --key value: {tok!r}")
            k, v = tok.split("=", 1)
            cfg[k.strip()] = v.strip()
        return COMMANDS[ns.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception:                           # a crash, not a failed check
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
