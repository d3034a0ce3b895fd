"""Command-line pipelines: artifacts, exit codes, byte determinism."""

import filecmp
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import degenlab
from degenlab.cli import _write, fmt, run


def _run(tmp, *argv):
    os.environ["DEGENLAB_OUT"] = str(tmp)
    try:
        return run(list(argv))
    finally:
        os.environ.pop("DEGENLAB_OUT", None)


def test_usage_error_exit_code(tmp_path):
    assert _run(tmp_path, "no-such-command") == 2
    assert _run(tmp_path, "eigen", "--config", "/no/such/file") == 2
    assert _run(tmp_path, "eigen", "badoverride") == 2
    # a trailing flag has no value; --h is no abbreviation of --help
    for flag in ("--alpha", "--h"):
        assert _run(tmp_path, "eigen", "a=0.5", flag) == 2


@pytest.mark.parametrize("argv,key,token", [
    (("sweep", "h=abc"), "h", "abc"),
    (("sweep", "mu=quadratic:abc"), "mu", "abc"),
    (("sweep", "mu=quadraticX"), "mu", "quadraticX"),
    (("solve", "h_list=1/8,x"), "h_list", "x"),
    (("solve", "h_list=1/8"), "h_list", "1/8"),
    (("solve", "h_list=1/8 1/16 1/16"), "h_list", "1/8 1/16 1/16"),
    (("sweep", "eps_list=0.1"), "eps_list", "0.1"),
    (("fermi-demo", "eps_list=0.1"), "eps_list", "0.1"),
    (("sweep", "mode=ratio_c2"), "mode", "ratio_c2"),
    (("fermi-demo", "eps_list=1 0.9"), "eps_list", "1 0.9"),
    (("eigen", "r_list=-4"), "r_list", "-4"),
    (("eigen", "r_list=0"), "r_list", "0"),
    (("eigen", "sweep_a=1"), "sweep_a", "1"),
    (("eigen", "a=1"), "a", "1"),
    (("eigen", "aux_a=3"), "aux_a", "3"),
    (("eigen", "h=0.3"), "h", "0.3"),
    (("eigen", "eps=-0.1"), "eps", "-0.1"),
    (("certify", "budget=999"), "budget", "999"),
    (("certify", "phi_a=1.5"), "phi_a", "1.5"),
    (("sweep", "h=0.3"), "h", "0.3"),
    (("solve", "h_list=0.5 0.25 0.125"), "h_list", "0.5"),
    (("sweep", "a=1"), "a", "1"),
    (("solve", "a=1"), "a", "1"),
    (("fermi-demo", "a=1"), "a", "1"),
    (("sweep", "eps_list=1 -0.1"), "eps_list", "-0.1"),
    (("fermi-demo", "eps_list=1 0.1 -0.01 0"), "eps_list", "-0.01"),
    (("sweep", "mode=odd_direct_c0", "a=-1.5"), "mode", "odd_direct_c0"),
    (("fermi-demo", "radius=0"), "radius", "0"),
    (("fermi-demo", "radius=0.5"), "radius", "0.5"),
    (("fermi-demo", "radius=1"), "radius", "1"),
    (("sweep", "alpha=-1"), "alpha", "-1"),
    (("sweep", "eps_list=0,0"), "eps_list", "0,0"),
    (("sweep", "eps_list=1,1"), "eps_list", "1,1"),
    (("sweep", "eps_list=0.5,0.5,0"), "eps_list", "0.5,0.5,0"),
    (("sweep", "eps_list=inf,0"), "eps_list", "inf"),
    (("sweep", "mu=quadratic:nan"), "mu", "nan"),
    (("sweep", "mu=quadratic:-20"), "mu", "-20"),
    (("sweep", "mu=quadratic:-1"), "mu", "-1"),
    (("eigen", "r_list=inf"), "r_list", "inf"),
    (("certify", "phi_a=-inf"), "phi_a", "-inf"),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, argv, key, token):
    """A value that does not parse, or that the command cannot run on, is a
    configuration error: exit 2 with a message that starts with the key and
    the token, not a crash with a traceback.  `fermi-demo eps_list=1 0.9` has
    two entries, but its sqrt_eps table at h = 1/32 admits neither.  A
    repeated eps leaves the sweep's trend fit degenerate, and `quadratic:<c>`
    with c <= -1 makes mu^(-1) = 1 + c x^2 vanish or turn negative."""
    assert _run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: {token!r}")
    assert "Traceback" not in err


def test_flag_style_overrides_and_fractions(tmp_path):
    """--key value and --key=value flags set keys as key=value does."""
    code = _run(tmp_path, "eigen", "--a", "0.5", "--h=1/16",
                "--aux_a=0.5", "--r_list", "1 4")
    assert code == 0
    text = (tmp_path / "eigen.csv").read_text()
    assert "h=0.0625" in text
    assert "trace[b=0.5]" in text


def test_eigen_artifacts(tmp_path):
    code = _run(tmp_path, "eigen", "a=0.5", "h=0.0625", "aux_a=0.5",
                "r_list=1 4", "sweep_a=0.5")
    assert code == 0
    text = (tmp_path / "eigen.csv").read_text()
    assert text.startswith("# degenlab")
    assert "config-hash" in text
    assert "trace[b=0.5]" in text


@pytest.mark.parametrize("h,code", [("1/64", 1), ("1/32", 0)])
def test_hardy_upper_bracket_holds_at_the_reference_h(tmp_path, monkeypatch, h, code):
    """The Hardy quotient must lie in [0.25, 0.40] at h <= 1/64, and only
    above 0.25 on coarser meshes: 0.41 fails at h = 1/64 and passes at
    h = 1/32.  The trace quotients are fakes that meet their targets."""
    import degenlab.cli as cli
    from degenlab.spectral import EigenResult

    def result(quotient_id, lam):
        return EigenResult(quotient_id, 0.0, 0.0, 0.0, lam, 0.0, "fake", 0, None)

    monkeypatch.setattr(cli, "trace_eigen", lambda b, eps, h: result(f"trace[b={b:g}]", 1.0 - b))
    monkeypatch.setattr(cli, "hardy_quotient", lambda weight, h: result("hardy", 0.41))
    monkeypatch.setattr(cli, "eigen_stability_sweep", lambda a, r_list, h: [])
    assert _run(tmp_path, "eigen", f"h={h}") == code


def test_solve_artifacts(tmp_path):
    for h_list in ("0.125 0.0625 0.03125", "1/24 1/48 1/96"):
        out = tmp_path / h_list.replace("/", "_").replace(" ", "-")
        code = _run(out, "solve", "a=0.5", f"h_list={h_list}")
        assert code == 0
        text = (out / "solve_orders.csv").read_text().splitlines()
        rows = [line.split(",") for line in text[text.index("h,max_error,order") + 1:]]
        assert len(rows) == 3
        # discrete-consistency mode recovers the manufactured field exactly
        assert [r[2] for r in rows[1:]] == ["exact", "exact"], h_list
        assert all(float(r[1]) <= 1e-12 for r in rows), h_list
        assert (out / "solve_field.csv").exists()


def _old_row(row):
    return ",".join(fmt(v) for v in row)


def test_write_matches_per_value_fmt(tmp_path):
    values = [0.1, 1 / 3, np.float64(2 / 3), np.float64(-1e-7), 7, np.int64(-3),
              True, False, "exact", "a,b", "100%", math.nan, np.float64(math.nan),
              math.inf, -math.inf, np.float64(-math.inf), -0.0, np.float64(-0.0),
              0.0, 1e-300, 1.5e300, 5e-324, 123456789012345.0, np.float32(0.1),
              None, (1, 2.5)]
    rows = [tuple(values), values[::-1], values[5:] + values[:5], [], [1.0],
            ("x",), (np.float64(1.5), 2, "y")]
    # column types change between rows, as in solve_orders.csv
    rows += [(0.0625, 1e-15, math.nan), (0.03125, 3e-15, "exact"),
             (0.015625, 5e-12, 2.0)]
    _write(tmp_path / "t.csv", ["header"], rows, ["c"])
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[3:-1] == [_old_row(r) for r in rows]
    assert lines[-1] == ""


def test_sweep_artifacts_and_verdict(tmp_path):
    code = _run(tmp_path, "sweep", "a=0", "h=0.0625", "eps_list=1 0.1 0")
    assert code == 0
    verdict = (tmp_path / "sweep_verdict.txt").read_text()
    assert "PASS" in verdict
    assert (tmp_path / "sweep_plot.dat").exists()


def test_fermi_demo_solves_once_per_eps(tmp_path, monkeypatch):
    """The three fermi tables share one solve per eps (4, not 4 + 3 + 4), and
    each row equals the one a separate sweep of that table gives."""
    import degenlab.holder as holder
    from degenlab.cli import _sweep_family

    calls = []
    solve_linear = holder.solve_linear

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_linear(*args, **kwargs)

    monkeypatch.setattr(holder, "solve_linear", counting)
    eps_list = [1.0, 0.1, 0.01, 0.0]
    assert _run(tmp_path, "fermi-demo", "h=1/16", "eps_list=1 0.1 0.01 0") == 0
    assert len(calls) == len(eps_list)
    # the demo's family: mu = fermi_mu of its circle of radius 2 at speed 2
    curve = degenlab.EmbeddedCurve.circle(2.0, arc=2.0, theta0=-0.5)
    fam = _sweep_family(0.5, lambda x, y: 1.0 / degenlab.fermi_mu(curve, x, y), "fermi")
    for name, mode, restricted in (("fermi_c0.csv", "ratio_c0", "none"),
                                   ("fermi_c1_restricted.csv", "ratio_c1", "sqrt_eps"),
                                   ("fermi_c1_unrestricted.csv", "ratio_c1", "none")):
        rep = holder.measure_sweep(fam, holder.solve_family(fam, eps_list, grid_h=1 / 16), 0.4,
                                   mode=mode, restricted=restricted)
        rows = (tmp_path / name).read_text().splitlines()
        rows = rows[rows.index("eps,seminorm,sup_norm") + 1:]
        assert rows == [",".join(map(fmt, row)) for row in rep.per_eps]


def test_certify_reports_all_targets(tmp_path):
    code = _run(tmp_path, "certify", "budget=50000", "phi_a=0.5 -1")
    text = (tmp_path / "certify.txt").read_text()
    assert "phi_bound[a=0.5]" in text and "pass=yes" in text
    assert "gamma_rectangle_exact" in text
    # the v-form reduction target is red by construction, so the subcommand
    # reports a failure exit
    assert "gamma_rectangle_v_bound" in text
    assert code == 1


def test_report_merges(tmp_path):
    """report lists the missing artifacts and the failed checks, and exits 1
    on either; a sweep of the Lipschitz seminorm of u ~ y^(1/2) itself fails."""
    _run(tmp_path, "eigen", "a=0.5", "h=0.0625", "aux_a=0.5", "r_list=1 4")
    assert _run(tmp_path, "report") == 1
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert "eigen.csv,present" in summary and "sweep.csv,missing" in summary
    assert summary[-1] == "failed_targets,none"
    assert _run(tmp_path, "sweep", "a=0.5", "mode=odd_direct_c0", "alpha=1", "h=1/16",
                "eps_list=1 0.01 0") == 1
    assert _run(tmp_path, "report") == 1
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert "sweep.csv,present" in summary
    assert summary[-1] == "failed_targets,sweep"


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\na=0\nh=0.0625\neps_list=1 0.1 0\n")
    code = _run(tmp_path, "sweep", "--config", str(cfg))
    assert code == 0
    sweep1 = (tmp_path / "sweep.csv").read_text()
    assert "a=0" in sweep1
    # an override after --config, the order the README documents, wins over the file
    assert _run(tmp_path, "sweep", "--config", str(cfg), "a=0.25") == 0
    sweep2 = (tmp_path / "sweep.csv").read_text()
    assert "family: a=0.25," in sweep2 and "h=0.0625" in sweep2


@pytest.mark.parametrize("config", [("--config={}",), ("--config", "{}")])
def test_config_equals_form(tmp_path, config):
    """--config=PATH reads the file as --config PATH does."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a=0.25\n")
    assert _run(tmp_path, "solve", *(c.format(cfg) for c in config),
                "h_list=1/4 1/8 1/16") == 0
    assert "a=0.25," in (tmp_path / "solve_orders.csv").read_text()


def test_byte_determinism_across_runs(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        d.mkdir()
        _run(d, "eigen", "a=0.5", "h=0.0625", "aux_a=0.5", "r_list=1 4")
        _run(d, "sweep", "a=0.5", "h=0.0625", "eps_list=1 0.1 0")
        _run(d, "certify", "budget=50000", "phi_a=0.5")
        _run(d, "solve", "h_list=0.125 0.0625 0.03125")
        _run(d, "report")
        (d / "sweep-quadratic").mkdir()
        _run(d / "sweep-quadratic", "sweep", "a=0.5", "h=0.0625", "eps_list=1 0.1 0",
             "mu=quadratic:0.1")
    names = sorted(str(p.relative_to(d1)) for p in d1.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(d2)) for p in d2.rglob("*") if p.is_file())
    assert os.path.join("sweep-quadratic", "sweep.csv") in names
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_crash_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    import degenlab.cli as cli

    def boom(cfg):
        raise RuntimeError("forced crash")

    monkeypatch.setitem(cli.COMMANDS, "solve", boom)
    assert _run(tmp_path, "solve") == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: forced crash" in err


def test_startup_leaves_scipy_integrate_unloaded(tmp_path):
    """``scipy.integrate``, and the ``scipy.optimize`` it loads, are imported
    only when ``weights.quad`` is first called: neither importing the CLI nor
    small certify, solve and eigen runs load them."""
    script = textwrap.dedent(f"""
        import json, os, sys
        import degenlab, degenlab.cli
        lazy = ("scipy.integrate", "scipy.optimize")
        loaded = [[m for m in lazy if m in sys.modules]]
        os.environ["DEGENLAB_OUT"] = {str(tmp_path)!r}
        codes = []
        for argv in (["certify", "budget=20000", "phi_a=0.5"],
                     ["solve", "h_list=1/8 1/16 1/32"],
                     ["eigen", "a=0.5", "h=1/16", "aux_a=0.5", "r_list=1 4"]):
            codes.append(degenlab.cli.run(argv))
            loaded.append([m for m in lazy if m in sys.modules])
        print(json.dumps([codes, loaded]))
    """)
    src = str(Path(degenlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    codes, loaded = json.loads(out.stdout)
    assert codes[0] in (0, 1) and codes[1:] == [0, 0]     # certify's reds are by design
    assert loaded == [[]] * 4
