"""Command line entry point: every verification pipeline as a subcommand.

Subcommands: eigen, sweep, certify, solve, fermi-demo, report.  Each writes
CSV (or line-record) artifacts into the directory named by the DEGENLAB_OUT
environment variable (default: current directory).  Exit codes:

    0  every check passed
    1  a check failed
    2  usage or configuration error
    3  crash: an uncaught exception, whose traceback goes to stderr

Configuration is a flat key=value text file ('#' comments allowed); command
line overrides come as key=value pairs or --key value flags; a key that the
subcommand does not read (see ``KEYS``) is a configuration error.  Outputs are
byte deterministic: floats are printed with 12 significant digits, newline
line endings, and the header comments record the tool version, a hash of the
keys set in the config file and overrides (not of the defaults), the grid
description, and tolerances.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .assembly import (RangeError, RhoWeight, _check_h_list, assemble, convergence_study,
                       manufactured_problem)
from .certify import (MIN_BUDGET, PHI_A_MIN, _phi_exponent_rule, verify_gamma_rectangle,
                      verify_phi_bound, verify_v_inequality, v_minimum)
from .geometry import MAX_CELLS, EmbeddedCurve, _cell_counts, build_half_grid, fermi_mu
from .holder import (SLOPE_TOL, TAU, ProblemFamily, _check_mode, _eps_step_rule, admissible_eps,
                     epsilon_sweep, measure_sweep, solve_family)
from .potentials import v_limit, v_limit_deriv
from .ratio import DivisionGuardError
from .spectral import MAX_NODES, HalfDiskMesh, _trace_route, hardy_quotient, trace_eigen
from .weights import MuInverse, WeightFamily


_FLOAT = "%.12g"         # every float of every artifact: 12 significant digits
_BLOCK_ROWS = 4096       # rows joined and written at a time
# extension modules that link numpy's and scipy's bundled OpenBLAS
_BLAS_USERS = ("numpy._core._multiarray_umath", "scipy.linalg._fblas")


def fmt(x) -> str:
    if isinstance(x, float):
        return _FLOAT % x
    return str(x)


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


def _texts(column):
    """fmt of each entry.  A float64 array formats each distinct bit pattern
    once (-0.0, every NaN and +-inf keep their own text) and indexes back."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        return np.array([_FLOAT % x for x in bits.view(np.float64).tolist()], dtype=object)[inverse]
    return [fmt(x) for x in column]


def _write(path: Path, header: list, names: list, columns):
    """A CSV artifact: the version and ``header`` as comment lines, ``names``,
    then one line per row of the equal-length ``columns``, each entry as fmt."""
    texts = [_texts(c) for c in columns]
    with path.open("w") as out:
        out.write("".join(f"# {h}\n" for h in [f"degenlab {__version__}", *header])
                  + ",".join(names) + "\n")
        for start in range(0, len(texts[0]), _BLOCK_ROWS):
            block = zip(*(t[start:start + _BLOCK_ROWS] for t in texts), strict=True)
            out.write("".join([",".join(row) + "\n" for row in block]))


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


def _eps_list(cfg: dict, default: str, a: float, h: float, m_inv) -> list:
    """At least two distinct eps >= 0 (the trend fit needs two abscissae).  An
    eps > 1 whose step is not representable at a and m^(-1) on the grid of
    spacing h, where eps = 1's is, is refused; any other such step is a's (``run``)."""
    step = _accepted_by(lambda e: _eps_step_rule(a, e, h, m_inv), "")[0]
    eps_list = _floats(cfg, "eps_list", default, (
        lambda e: e >= 0.0 and (e <= 1.0 or step(e) or not step(1.0)),
        f"non-negative, with rho and v representable at a={a:g} on h={h:g}"))
    if len(eps_list) < 2:
        raise ConfigError(f"eps_list: {cfg['eps_list']!r} has fewer than two entries")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError(f"eps_list: {cfg['eps_list']!r} repeats an entry")
    return eps_list


def _thread_setter(module: str):
    """``openblas_set_num_threads_local`` of the OpenBLAS that ``module``
    links (``dlsym`` on its handle searches its dependencies), or None."""
    try:
        library = ctypes.CDLL(importlib.import_module(module).__file__)
        setter = library.openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's and scipy's OpenBLAS on one thread each inside the block, and
    at their old counts after it, restored in reverse order so that a library
    reached twice ends at its own.  On a 2-core machine a call that OpenBLAS
    threads (a gemm from 2^20 multiply-adds, a ddot from 16,000 entries,
    ``dpbtrf`` at h = 1/64) leaves a thread spinning for 50 ms after it
    returns (``scripts/blas_spin.py``), and no call of the lab gains from a
    second thread.  A library without the setter is named on stderr."""
    restore = []
    for module in _BLAS_USERS:
        setter = _thread_setter(module)
        if setter is None:
            print(f"degenlab: no OpenBLAS thread setter found through {module}; "
                  "its BLAS keeps its own thread count", file=sys.stderr)
        else:
            restore.append((setter, setter(1)))
    try:
        yield
    finally:
        for setter, count in reversed(restore):
            setter(count)


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


_A = "0.5"              # the default exponent of sweep, solve and fermi-demo
# The characteristic solution and the trace exponents need a < 1
_BELOW_ONE = (lambda a: a < 1.0, "below 1")
_ALPHA = (lambda alpha: 0.0 < alpha <= 1.0, "in (0, 1]")      # a Holder exponent
_PHI_EXPONENT = _accepted_by(_phi_exponent_rule, f"in [{PHI_A_MIN!r}, 1)")
_MESH_SPACING = _accepted_by(HalfDiskMesh.from_h, f"1/n, n >= 3, at most {MAX_NODES} nodes")
# the lambda_r rows solve at eps = 1/r > 0
_EPS_TRACE_EXPONENT = _accepted_by(lambda b: _trace_route(b, 1.0), "in (-1, 1)")
_LAMBDA_R = _accepted_by(lambda r: _trace_route(0.0, 1.0 / r), "positive, with 1/r^2 finite")
_GRID_SPACING = _accepted_by(lambda h: _cell_counts(h, 1), f"1/n, n >= 4, <= {MAX_CELLS} cells")
# the Fermi chart of the circle must cover the grid, up to its top y = 1
_CHART_RADIUS = _accepted_by(lambda r: fermi_mu(EmbeddedCurve.circle(r), 0.0, 1.0),
                             "a radius whose Fermi chart covers y <= 1")


def cmd_eigen(cfg: dict) -> int:
    # trace_eigen takes exponents b < 1: a itself, and aux_a - 2
    a_list = _floats(cfg, "a", "-0.5 0 0.5", _BELOW_ONE)
    h = _float(cfg, "h", "1/64", _MESH_SPACING)
    aux_list = _floats(cfg, "aux_a", "0.5 -1", (lambda a: a - 2.0 < 1.0, "below 3"))
    r_list = _floats(cfg, "r_list", "1 4 16 64", _LAMBDA_R)
    sweep_a = _float(cfg, "sweep_a", "0.5", _EPS_TRACE_EXPONENT)
    rows = []
    ok = True
    for a in a_list:
        res = trace_eigen(a, 0.0, h)
        rows.append(res.csv_row())
        ok &= abs(res.lam - (1.0 - a)) <= 0.05
    for a in aux_list:
        res = trace_eigen(a - 2.0, 0.0, h)
        rows.append(res.csv_row())
        ok &= abs(res.lam - (3.0 - a)) <= 0.1
    hres = hardy_quotient(h)
    rows.append(hres.csv_row())
    ok &= hres.lam >= 0.25                   # conformity bound at every h
    if h <= 1.0 / 64 + 1e-12:
        ok &= hres.lam <= 0.40               # bracketed value at the reference h
    for r in r_list:                         # lam_r -> 1 - sweep_a as r grows
        res = trace_eigen(sweep_a, 1.0 / r, h)
        rows.append((f"lambda_r[a={sweep_a:g}]", sweep_a, r, h, res.lam, res.residual))
    header = [f"config-hash: {_config_hash(cfg)}",
              f"grid: half-disk polar mesh, h={fmt(h)}",
              "tolerances: trace 0.05, auxiliary 0.1, hardy [0.25,0.40]"]
    _write(_outdir() / "eigen.csv", header,
           ["quotient_id", "a", "eps_or_r", "h", "lambda", "residual"], zip(*rows))
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
    a = _float(cfg, "a", _A, _BELOW_ONE)
    mu_kind = cfg.get("mu", "const")
    if mu_kind == "const":
        mu_inv = None
    elif mu_kind == "quadratic" or mu_kind.startswith("quadratic:"):
        # c > -1 keeps mu^(-1) = 1 + c x^2 positive on |x| <= 1
        c = (_number("mu", mu_kind.split(":", 1)[1], valid=(lambda c: c > -1.0, "above -1"))
             if ":" in mu_kind else 0.1)

        def m_inv(x, c=c):
            return 1.0 / (1.0 + c * x * x)
        mu_inv = MuInverse(m_inv=m_inv)
    else:
        raise ConfigError(f"mu: {mu_kind!r} is not const, quadratic or quadratic:<c>")
    return _sweep_family(a, mu_inv, f"a={a:g},mu={mu_kind}")


def cmd_sweep(cfg: dict) -> int:
    family = _family_from_cfg(cfg)
    h = _float(cfg, "h", "1/64", _GRID_SPACING)
    eps_list = _eps_list(cfg, "1 0.3 0.1 0.03 0.01 0", family.a, h,
                         (family.mu_inverse or MuInverse()).m_inv)
    alpha = _float(cfg, "alpha", "0.4", _ALPHA)
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
    _write(_outdir() / "sweep.csv", header, ["eps", "seminorm", "sup_norm"], zip(*rows))
    (_outdir() / "sweep_verdict.txt").write_text(rep.verdict() + "\n")
    plot_rows = [(e if e > 0 else min(x for x in eps_list if x > 0) / 10.0, s)
                 for e, s, _ in rows]
    _write(_outdir() / "sweep_plot.dat", ["two-column plot data: eps seminorm"],
           ["eps", "seminorm"], zip(*plot_rows))
    return 0 if rep.passed else 1


def cmd_certify(cfg: dict) -> int:
    # the v inequality takes half the budget
    budget = _number("budget", cfg.get("budget", "200000"), int,
                     (lambda b: b // 2 >= MIN_BUDGET, f"at least {2 * MIN_BUDGET}"))
    a_samples = _floats(cfg, "phi_a", "0.9 0.5 0 -1 -3 -10", _PHI_EXPONENT)
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
    a = _float(cfg, "a", _A, _BELOW_ONE)
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
    _write(_outdir() / "solve_orders.csv", header, ["h", "max_error", "order"], zip(*rows))
    grid = rep.field.grid
    _write(_outdir() / "solve_field.csv",
           [f"config-hash: {_config_hash(cfg)}", f"grid: {grid.describe()}",
            f"tolerances: solver relative residual {fmt(rep.tolerance)}"],
           ["x", "y", "value"], [grid.centers[:, 0], grid.centers[:, 1], rep.field.values])
    return 0 if ok else 1


def cmd_fermi_demo(cfg: dict) -> int:
    a = _float(cfg, "a", _A, _BELOW_ONE)
    radius = _float(cfg, "radius", "2.0", _CHART_RADIUS)
    h = _float(cfg, "h", "1/32", _GRID_SPACING)
    alpha = _float(cfg, "alpha", "0.4", _ALPHA)
    eps_text = cfg.get("eps_list", "1 0.1 0.01 0")
    eps_list = _eps_list(cfg, eps_text, a, h, None)
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
           ["t", "y", "mu", "jacobian_fd", "abs_diff"], zip(*rows_mu))

    # 2) quotient tables in the straightened chart, mu = fermi_mu = speed * (1 - y kappa),
    # a function of y alone on the circle, whose speed and curvature are constant
    def n_inv(y):
        return 1.0 / fermi_mu(curve, 0.0, y)

    family = _sweep_family(a, MuInverse(n_inv=n_inv), f"fermi-circle[R={radius:g},a={a:g}]")
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
               ["eps", "seminorm", "sup_norm"], zip(*rep.per_eps))
    ok &= rep_c0.passed and rep_c1r.passed   # unrestricted table is reported, not judged
    return 0 if ok else 1


def cmd_report(cfg: dict) -> int:
    out = _outdir()
    names = ["eigen.csv", "sweep.csv", "certify.txt", "solve_orders.csv", "fermi_mu_check.csv"]
    status = ["present" if (out / name).exists() else "missing" for name in names]
    fails = []
    cert = out / "certify.txt"
    if cert.exists():
        for line in cert.read_text().splitlines():
            if "pass=no" in line:
                fails.append(line.split()[0])
    verdict = out / "sweep_verdict.txt"
    if verdict.exists() and "FAIL" in verdict.read_text():
        fails.append("sweep")
    _write(out / "summary.csv", [f"config-hash: {_config_hash(cfg)}"], ["artifact", "status"],
           [names + ["failed_targets"], status + [";".join(fails) if fails else "none"]])
    return 0 if ("missing" not in status and not fails) else 1


# the keys each subcommand reads, as README's "Keys per subcommand" lists them
KEYS = {
    "eigen": ("a", "h", "aux_a", "r_list", "sweep_a"),
    "sweep": ("a", "mu", "alpha", "h", "eps_list", "mode"),
    "certify": ("budget", "phi_a"),
    "solve": ("a", "h_list"),
    "fermi-demo": ("a", "radius", "h", "alpha", "eps_list"),
    "report": (),
}

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
        for k, v in cfg.items():
            if k not in KEYS[ns.command]:
                raise ConfigError(f"{k}: {v!r} is not a key of {ns.command}")
        with _one_blas_thread():
            return COMMANDS[ns.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (RangeError, DivisionGuardError) as e:   # an a that takes w, A or v out of range
        print(f"config error: a: {cfg.get('a', _A)!r} is not usable on this grid: {e}",
              file=sys.stderr)
        return 2
    except Exception:                           # a crash, not a failed check
        traceback.print_exc()
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
