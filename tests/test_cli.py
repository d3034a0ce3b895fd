"""Command-line pipelines: artifacts, exit codes, byte determinism."""

import filecmp
import os
from pathlib import Path

import pytest

from degenlab.cli import run


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


def test_flag_style_overrides_and_fractions(tmp_path):
    code = _run(tmp_path, "eigen", "--a", "0.5", "--h", "1/16",
                "--aux_a", "0.5", "--r_list", "1 4")
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


def test_solve_artifacts(tmp_path):
    code = _run(tmp_path, "solve", "a=0.5", "h_list=0.125 0.0625 0.03125")
    assert code == 0
    orders = (tmp_path / "solve_orders.csv").read_text()
    assert "exact" in orders           # discrete-consistency mode recovers exactly
    assert (tmp_path / "solve_field.csv").exists()


def test_sweep_artifacts_and_verdict(tmp_path):
    code = _run(tmp_path, "sweep", "a=0", "h=0.0625", "eps_list=1 0.1 0")
    assert code == 0
    verdict = (tmp_path / "sweep_verdict.txt").read_text()
    assert "PASS" in verdict
    assert (tmp_path / "sweep_plot.dat").exists()


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
    _run(tmp_path, "eigen", "a=0.5", "h=0.0625", "aux_a=0.5", "r_list=1 4")
    _run(tmp_path, "report")
    assert (tmp_path / "summary.csv").exists()


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\na=0\nh=0.0625\neps_list=1 0.1 0\n")
    code = _run(tmp_path, "sweep", "--config", str(cfg))
    assert code == 0
    sweep1 = (tmp_path / "sweep.csv").read_text()
    assert "a=0" in sweep1


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
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
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
