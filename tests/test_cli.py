"""Command-line pipelines: artifacts, exit codes, byte determinism."""

import contextlib
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degenlab
import degenlab.cli as cli
from degenlab import holder
from degenlab.certify import MIN_BUDGET, PHI_A_MIN
from degenlab.spectral import B_MIN
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
    (("eigen", "sweep_a=-1.5"), "sweep_a", "-1.5"),
    (("certify", "bugdet=5"), "bugdet", "5"),
    (("report", "a=0.5"), "a", "0.5"),
    (("eigen", "h=1/2"), "h", "1/2"),
    (("eigen", "h=1"), "h", "1"),
    (("certify", "phi_a=-50.4"), "phi_a", "-50.4"),
    (("solve", "a=-300"), "a", "-300"),
    (("solve", "a=-120", "h_list=1/4 1/8 1/16"), "a", "-120"),
    (("solve", "a=0.9999999999999998"), "a", "0.9999999999999998"),
    (("sweep", "a=-300", "h=1/16"), "a", "-300"),
    (("sweep", "a=0.9999999999999998", "h=1/16"), "a", "0.9999999999999998"),
    (("sweep", "a=-100", "h=1/16"), "a", "-100"),
    (("fermi-demo", "a=-300"), "a", "-300"),
    (("sweep", "a=-30", "h=1/16", "eps_list=1,0"), "a", "-30"),
    (("eigen", "h=1/8", "r_list=1e-155"), "r_list", "1e-155"),
    (("eigen", "h=1/4", "r_list=5e-324"), "r_list", "5e-324"),
    (("solve", "h_list=1/8 1/16 1e-5"), "h_list", "1e-5"),
    (("sweep", "h=1e-5"), "h", "1e-5"),
    (("fermi-demo", "h=1e-5"), "h", "1e-5"),
    (("eigen", "h=1e-5"), "h", "1e-5"),
    (("eigen", "h=5e-324"), "h", "5e-324"),
    (("sweep", "h=1/16", "eps_list=1e100,0"), "eps_list", "1e100"),
    (("sweep", "h=1/16", "eps_list=1e154,0"), "eps_list", "1e154"),
    (("sweep", "h=1/16", "eps_list=1e200,0"), "eps_list", "1e200"),
    (("fermi-demo", "a=0.5", "h=1/16", "eps_list=1.08e24,0.01,0"), "eps_list", "1.08e24"),
    (("eigen", "h=1/8", "a=-1e100"), "a", "-1e100"),
    (("eigen", "h=1/8", "a=-1e200"), "a", "-1e200"),
    (("eigen", "h=1/8", "aux_a=-1e200"), "aux_a", "-1e200"),
])
def test_malformed_config_value_exits_2(tmp_path, capsys, argv, key, token):
    """A value that does not parse, or that the command cannot run on, is a
    configuration error: exit 2 with a message that starts with the key and
    the token, not a crash with a traceback.  `fermi-demo eps_list=1 0.9` has
    two entries, but its sqrt_eps table at h = 1/32 admits neither.  A
    repeated eps leaves the sweep's trend fit degenerate, and `quadratic:<c>`
    with c <= -1 makes mu^(-1) = 1 + c x^2 vanish or turn negative.  A key
    the command does not read (`eigen eps=`, a typo, any key of `report`)
    is refused before the command runs.  `solve`, `sweep` and `fermi-demo`
    refuse an a whose weight, operator or separable fit overflows on their
    grids (``cli.run`` maps ``assembly.RangeError`` for every subcommand):
    y^a with a = -300 at the first cell centre, or the harmonic mean of two
    x-face weights with eps > 0, and with a = -120 at h = 1/16; the
    y-resistances, which round to 0 with a = 1 - 2^-52; and v below the
    quotient's guard at eps = 0 with a = -30.  An `r_list` entry
    whose eps = 1/r has no finite square, a spacing whose grid or polar
    mesh exceeds the size bound, and an eps above 1 whose rho or v leaves
    the range of double precision (where eps = 1 does not) are refused by
    the library's own rules, before any array is allocated; so is a trace
    exponent (`eigen a`, or `aux_a` - 2) below ``spectral.B_MIN``, whose
    eigenvalue squared under Lanczos would leave that range."""
    assert _run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: {token!r}")
    assert "Traceback" not in err


def test_a_huge_eps_is_usable_where_it_is_representable(tmp_path):
    """At a = 0, rho is 1 and v is y whatever eps is, so eps = 1e200 runs."""
    assert _run(tmp_path, "sweep", "h=1/16", "a=0", "eps_list=1e200,0") == 0


def test_huge_scales_run_where_v_and_the_operator_are_representable(tmp_path, capsys):
    """At a = -30, eps = 1e10, chi's factor eps^(1-a) = 1e310 overflows, but
    chi ~ eps^(-a) y does not (v ~ 3e301 at the top), and the separable fit
    of transmissibilities of 1e-300 is taken in units of its column sums:
    the entry runs, and its seminorm reads as eps = 1's.  eps = 3e10 puts v
    at the top past double precision and is refused by the eps rule, naming
    eps_list.  With eps = 0 in the list, v = y^31 is below the quotient's
    guard at the first cell (as for eps_list=1,0): that is a's.  At
    a = -100, h = 1/16, the fit's column sums reach 1e150, and the solve
    recovers its manufactured solution."""
    assert _run(tmp_path, "sweep", "a=-30", "h=1/16", "eps_list=1e10,1") == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[-2:]
    semi = [float(r.split(",")[1]) for r in rows]
    assert semi[0] == pytest.approx(semi[1], rel=0.05)
    for eps, key in (("3e10,1", "eps_list: '3e10'"), ("1e10,0", "a: '-30'")):
        capsys.readouterr()
        assert _run(tmp_path, "sweep", "a=-30", "h=1/16", f"eps_list={eps}") == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert _run(tmp_path, "solve", "a=-100", "h_list=1/4 1/8 1/16") == 0


def test_the_eps_rule_reads_m_inverse_at_the_grid_columns(capsys, tmp_path):
    """mu^(-1) = 1/(1 + 1000 x^2) makes v at the outer columns about 1e-3
    times its mu = 1 value: eps = 1e21 leaves v(h/2) under the guard there
    and is refused naming eps_list, while eps = 1e18 runs."""
    argv = ("sweep", "mu=quadratic:1000", "a=0.5", "h=1/16")
    assert _run(tmp_path, *argv, "eps_list=1e21,0") == 2
    assert capsys.readouterr().err.startswith("config error: eps_list: '1e21'")
    assert _run(tmp_path, *argv, "eps_list=1e18,0") in (0, 1)
    holder._eps_step_rule(0.5, 1e21, 1 / 16, None)
    with pytest.raises(ValueError, match="range of double precision"):
        holder._eps_step_rule(0.5, 1e21, 1 / 16,
                              degenlab.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 1000.0 * x * x)))


def test_the_eps_rule_reads_n_inverse_of_the_fermi_chart(capsys, tmp_path):
    """fermi-demo's chart factor n^(-1) = 1/fermi_mu(0, y) is about 1/2, so v
    is about half its mu = 1 value: at h = 1/16, eps = 1.08e24 leaves v(h/2)
    under the guard and is refused naming eps_list (not a), by the rule
    with the least n^(-1) on [0, h/2], while eps = 6e23 runs."""
    argv = ("fermi-demo", "a=0.5", "h=1/16")
    assert _run(tmp_path, *argv, "eps_list=1.08e24,0.01,0") == 2
    assert capsys.readouterr().err.startswith("config error: eps_list: '1.08e24'")
    assert _run(tmp_path, *argv, "eps_list=6e23,0.01,0") in (0, 1)
    curve = degenlab.EmbeddedCurve.circle(2.0, arc=2.0, theta0=-0.5)
    chart = degenlab.MuInverse(n_inv=lambda y: 1.0 / degenlab.fermi_mu(curve, 0.0, y))
    holder._eps_step_rule(0.5, 1.08e24, 1 / 16, None)
    holder._eps_step_rule(0.5, 6e23, 1 / 16, chart)
    with pytest.raises(ValueError, match="range of double precision"):
        holder._eps_step_rule(0.5, 1.08e24, 1 / 16, chart)


@pytest.mark.parametrize("argv", [
    ("sweep", "a=-3.6463472573565566e-82", "mu=quadratic:568.36", "mode=odd_direct_c0",
     "h=1/16", "eps_list=4.892085251810417e-241 0.176436734603219"),
    ("sweep", "a=0.5", "h=1/16", "eps_list=1e-300 0.1"),
], ids=["a-below-0", "a-0.5"])
def test_an_eps_whose_square_underflows_runs(tmp_path, argv):
    """eps^2 underflows to 0 below eps = 1e-162, and eps^2 + y^2 with it at
    y = 0, where the Simpson rule of the rho weight reads rho: rho there is
    eps^a (1 at a = -3.6e-82, not 0^(a/2) = inf, which made the CG overflow
    and blamed a), so the sweep runs."""
    assert _run(tmp_path, *argv) in (0, 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.floats(max_value=1.0, exclude_max=True, allow_nan=False, allow_infinity=False),
       n=st.lists(st.integers(4, 16), min_size=3, max_size=3, unique=True).map(sorted))
def test_solve_never_crashes_on_what_it_admits(a, n):
    """Any finite a below 1 and any three levels 1/n of n >= 4: solve runs
    (exit 0 or 1) or refuses one key (exit 2, the message starts with it),
    and never crashes (exit 3)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(tmp, "solve", f"a={a!r}", "h_list=" + " ".join(f"1/{k}" for k in n))
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert re.match(r"config error: (a|h_list): ", err.getvalue()), err.getvalue()


def _never_crashes(argv, keys):
    """Run argv: exit 0 or 1, or exit 2 whose message starts with one of
    ``keys``; never a crash (exit 3)."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(tmp, *argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert re.match(rf"config error: ({'|'.join(keys)}): ", err.getvalue()), err.getvalue()


_A_BELOW_ONE = st.floats(max_value=1.0, exclude_max=True, allow_nan=False, allow_infinity=False)
_EPS_PAIR = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2, unique=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=_A_BELOW_ONE, eps=_EPS_PAIR, alpha=st.floats(1e-3, 1.0),
       mu=st.one_of(st.just("const"), st.floats(-0.999, 1e3).map(lambda c: f"quadratic:{c!r}")),
       mode=st.sampled_from(["ratio_c0", "ratio_c1", "odd_direct_c0"]))
def test_sweep_never_crashes_on_what_it_admits(a, eps, alpha, mu, mode):
    """Any finite a below 1, any mu kind with c > -1, alpha in (0, 1], any
    mode and two distinct eps >= 0, at h = 1/16: sweep runs (exit 0 or 1) or
    refuses one key (exit 2, the message starts with it), never exit 3."""
    _never_crashes(["sweep", f"a={a!r}", f"mu={mu}", f"alpha={alpha!r}", f"mode={mode}",
                    "h=1/16", "eps_list=" + " ".join(map(repr, eps))], cli.KEYS["sweep"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=_A_BELOW_ONE, eps=_EPS_PAIR, alpha=st.floats(1e-3, 1.0),
       radius=st.floats(1.0, 1e3, exclude_min=True))
def test_fermi_demo_never_crashes_on_what_it_admits(a, eps, alpha, radius):
    """Any finite a below 1, a chart radius above 1, alpha in (0, 1] and two
    distinct eps >= 0, at h = 1/16: fermi-demo runs (exit 0 or 1) or refuses
    one key (exit 2, the message starts with it), never exit 3."""
    _never_crashes(["fermi-demo", f"a={a!r}", f"radius={radius!r}", f"alpha={alpha!r}",
                    "h=1/16", "eps_list=" + " ".join(map(repr, eps))], cli.KEYS["fermi-demo"])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(phi_a=st.lists(st.floats(PHI_A_MIN, 1.0, exclude_max=True), min_size=1, max_size=3),
       budget=st.integers(2 * MIN_BUDGET, 10 * MIN_BUDGET))
def test_certify_never_crashes_on_what_it_admits(phi_a, budget):
    """One to three phi_a in [PHI_A_MIN, 1) and a budget from the least that
    certify admits, 2 MIN_BUDGET, to 10 MIN_BUDGET: certify runs (exit 0 or
    1) or refuses one key (exit 2, the message starts with it), never exit 3."""
    _never_crashes(["certify", "phi_a=" + " ".join(map(repr, phi_a)), f"budget={budget}"],
                   cli.KEYS["certify"])


@pytest.mark.parametrize("a", ["-1e20", "-1e60"])
def test_huge_trace_exponents_run(tmp_path, capsys, a):
    """A trace exponent down to ``spectral.B_MIN`` = -1e60 runs: lam is
    about 9e37 at a = -1e20 and h = 1/8, far from 1 - a, so the row misses
    its tolerance (exit 1), with no traceback."""
    assert _run(tmp_path, "eigen", "h=1/8", f"a={a}") == 1
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=30, deadline=None, derandomize=True)
@given(a=st.lists(st.floats(B_MIN, 1.0, exclude_max=True), min_size=1, max_size=3),
       aux_a=st.lists(st.floats(B_MIN, 3.0, exclude_max=True), min_size=1, max_size=2),
       r=st.lists(st.floats(1e-154, allow_infinity=False), min_size=1, max_size=3),
       sweep_a=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       h=st.sampled_from(["1/4", "1/8"]))
def test_eigen_never_crashes_on_what_it_admits(a, aux_a, r, sweep_a, h):
    """One to three a in [B_MIN, 1), one or two aux_a in [B_MIN, 3), one to
    three r_list entries from 1e-154 (where 1/r^2 is finite) up, and sweep_a
    in (-1, 1), at h = 1/4 and 1/8: eigen runs (exit 0 or 1) or refuses one
    key (exit 2, the message starts with it), never exit 3."""
    _never_crashes(["eigen", "a=" + " ".join(map(repr, a)), "aux_a=" + " ".join(map(repr, aux_a)),
                    "r_list=" + " ".join(map(repr, r)), f"sweep_a={sweep_a!r}", f"h={h}"],
                   cli.KEYS["eigen"])


def test_eigen_runs_at_the_coarsest_mesh_it_accepts(tmp_path, capsys):
    """h = 1/3 is the coarsest eigen mesh: it runs (its trace rows miss their
    tolerances, exit 1) where h = 1/2 and 1 are refused."""
    assert _run(tmp_path, "eigen", "h=1/3", "r_list=1") == 1
    assert "Traceback" not in capsys.readouterr().err
    assert "hardy" in (tmp_path / "eigen.csv").read_text()


def test_readme_key_table_is_the_cli_contract():
    """Each row of README's "Keys per subcommand" table lists the keys of
    ``cli.KEYS`` for its subcommand, in order, and the rows name every
    subcommand."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text[text.index("Keys per"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = {}
    for line in lines[start + 2:]:                 # past the header and the rule
        if not line.startswith("|"):
            break
        name, keys = (c.strip() for c in re.split(r"(?<!\\)\|", line.strip("|")))
        table[name] = tuple(re.findall(r"`([^`]+)` \(", keys))
    assert table == cli.KEYS
    assert sorted(table) == sorted(cli.COMMANDS)


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


def test_eigen_lambda_r_rows_are_trace_quotients_of_dilated_weights(tmp_path):
    """Each lambda_r row of eigen.csv is trace_eigen(sweep_a, 1/r, h), its
    lambda and residual printed to 12 significant digits."""
    assert _run(tmp_path, "eigen", "a=0.5", "h=1/16", "aux_a=0.5",
                "r_list=1 4", "sweep_a=-0.5") == 0
    rows = [line.split(",") for line in (tmp_path / "eigen.csv").read_text().splitlines()
            if line.startswith("lambda_r")]
    want = []
    for r in (1.0, 4.0):
        res = degenlab.trace_eigen(-0.5, 1.0 / r, 1 / 16)
        want.append(["lambda_r[a=-0.5]", "-0.5", fmt(r), "0.0625", fmt(res.lam),
                     fmt(res.residual)])
    assert rows == want


@pytest.mark.parametrize("h,code", [("1/64", 1), ("1/32", 0)])
def test_hardy_upper_bracket_holds_at_the_reference_h(tmp_path, monkeypatch, h, code):
    """The Hardy quotient must lie in [0.25, 0.40] at h <= 1/64, and only
    above 0.25 on coarser meshes: 0.41 fails at h = 1/64 and passes at
    h = 1/32.  The trace quotients are fakes that meet their targets."""
    from degenlab.spectral import EigenResult

    def result(quotient_id, lam):
        return EigenResult(quotient_id, 0.0, 0.0, 0.0, lam, 0.0, "fake", 0, None)

    monkeypatch.setattr(cli, "trace_eigen", lambda b, eps, h: result(f"trace[b={b:g}]", 1.0 - b))
    monkeypatch.setattr(cli, "hardy_quotient", lambda h: result("hardy", 0.41))
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


def _data_lines(path, names):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    return lines[lines.index(",".join(names)) + 1:-1]


def test_write_matches_per_value_fmt(tmp_path):
    """Every entry of a column prints as fmt, whatever its type."""
    values = [0.1, 1 / 3, np.float64(2 / 3), np.float64(-1e-7), 7, np.int64(-3),
              True, False, "exact", "a,b", "100%", math.nan, np.float64(math.nan),
              math.inf, -math.inf, np.float64(-math.inf), -0.0, np.float64(-0.0),
              0.0, 1e-300, 1.5e300, 5e-324, 123456789012345.0, np.float32(0.1),
              None, (1, 2.5)]
    tables = [[values, values[::-1], values[5:] + values[:5]],
              # the order column of solve_orders.csv mixes str and float
              [(0.0625, 0.03125, 0.015625), (1e-15, 3e-15, 5e-12), (math.nan, "exact", 2.0)],
              [(1.0, np.float64(1.5)), ("x", 2), ("y", "x")]]
    for columns in tables:
        names = [f"c{j}" for j in range(len(columns))]
        _write(tmp_path / "t.csv", ["header"], names, columns)
        assert _data_lines(tmp_path / "t.csv", names) == [_old_row(r) for r in zip(*columns)]


def test_write_formats_float_arrays_per_bit_pattern(tmp_path):
    """A float64 array column, formatted once per distinct bit pattern, prints
    as fmt of each entry: 0.0 and -0.0, NaNs of several payloads and signs,
    +-inf, subnormals and repeats, over more rows than one write block, also
    from strided views as the grid's coordinate columns are."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    special = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                               2.2250738585072e-308, 1e-310, 1 / 3, 0.1, -1.5e300], nans])
    rng = np.random.default_rng(28)
    n = 2 * cli._BLOCK_ROWS + 7
    pool = np.concatenate([special, rng.standard_normal(40)])
    centers = rng.choice(pool, size=(n, 2))
    value = rng.choice(pool, size=n)
    columns = [centers[:, 0], centers[:, 1], value, np.arange(n),
               np.linspace(-1, 1, n, dtype=np.float32)]
    names = ["x", "y", "value", "index", "single"]
    _write(tmp_path / "t.csv", ["header"], names, columns)
    lines = _data_lines(tmp_path / "t.csv", names)
    assert lines == [_old_row(r) for r in zip(*columns)]
    floats = {v for line in lines for v in line.split(",")[:3]}
    assert {"0", "-0", "nan", "inf", "-inf", "4.94065645841e-324"} <= floats


def test_solve_field_lines_are_fmt_of_the_finest_field(tmp_path, monkeypatch):
    """solve_field.csv holds one line per cell of the finest grid: x, y and
    the solved value, each as fmt."""
    studies = []
    study = cli.convergence_study

    def keeping(*args, **kwargs):
        rows, rep = study(*args, **kwargs)
        studies.append(rep)
        return rows, rep

    monkeypatch.setattr(cli, "convergence_study", keeping)
    assert _run(tmp_path, "solve", "a=0.5", "h_list=1/8 1/16 1/32") == 0
    grid, values = studies[0].field.grid, studies[0].field.values
    assert len(values) == 64 * 32
    expected = [_old_row(r) for r in zip(grid.centers[:, 0].tolist(),
                                         grid.centers[:, 1].tolist(), values.tolist())]
    assert _data_lines(tmp_path / "solve_field.csv", ["x", "y", "value"]) == expected


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
    fam = _sweep_family(0.5, degenlab.MuInverse(
        n_inv=lambda y: 1.0 / degenlab.fermi_mu(curve, 0.0, y)), "fermi")
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

    def boom(cfg):
        raise RuntimeError("forced crash")

    monkeypatch.setitem(cli.COMMANDS, "solve", boom)
    assert _run(tmp_path, "solve") == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: forced crash" in err


def test_no_blas_thread_spins_after_a_run(tmp_path):
    """With ``OPENBLAS_NUM_THREADS=2``, a 50 ms sleep right after ``cli.run``
    burns under 1 ms of CPU: after solve-fine's levels, whose h = 1/96 CG dots
    and separable products OpenBLAS threads on its own, and after the
    pipeline's eigen at h = 1/64, whose band Cholesky it threads."""
    script = textwrap.dedent(f"""
        import json, os, time
        import degenlab.cli
        os.environ["DEGENLAB_OUT"] = {str(tmp_path)!r}
        runs = []
        for argv in (["solve", "a=0.5", "h_list=1/24 1/48 1/96"], ["eigen", "h=1/64"]):
            code = degenlab.cli.run(argv)
            c0 = time.process_time()
            time.sleep(0.05)
            runs.append((code, time.process_time() - c0))
        print(json.dumps(runs))
    """)
    src = str(Path(degenlab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    (solve_code, solve_cpu), (eigen_code, eigen_cpu) = json.loads(out.stdout)
    assert (solve_code, eigen_code) == (0, 0) and out.stderr == ""
    assert solve_cpu < 1e-3 and eigen_cpu < 1e-3


def _count(setter) -> int:
    """The thread count of a setter's library: set, and set back."""
    count = setter(1)
    setter(count)
    return count


def test_run_holds_each_blas_library_at_one_thread(tmp_path, monkeypatch):
    """Inside ``cli.run`` numpy's and scipy's OpenBLAS each read 1 thread;
    after it, each reads its old count again, also when the command raised."""
    setters = [cli._thread_setter(module) for module in cli._BLAS_USERS]
    assert None not in setters
    before = [_count(s) for s in setters]
    inside = []

    def probe(cfg):
        inside.append([_count(s) for s in setters])
        if len(inside) > 1:
            raise RuntimeError("forced crash")
        return 0

    monkeypatch.setitem(cli.COMMANDS, "report", probe)
    assert _run(tmp_path, "report") == 0
    assert [_count(s) for s in setters] == before
    assert _run(tmp_path, "report") == 3
    assert [_count(s) for s in setters] == before
    assert inside == [[1, 1], [1, 1]]


def test_a_library_reached_twice_ends_at_its_old_count(tmp_path, monkeypatch):
    """If numpy and scipy shared one OpenBLAS, the second setter call would
    return 1; the control restores in reverse order, so 3 comes back last."""
    count = [3]

    def setter(n):
        old, count[0] = count[0], n
        return old

    monkeypatch.setattr(cli, "_thread_setter", lambda module: setter)
    inside = []
    monkeypatch.setitem(cli.COMMANDS, "report", lambda cfg: inside.append(count[0]) or 0)
    assert _run(tmp_path, "report") == 0
    assert inside == [1] and count == [3]


def test_a_library_without_the_setter_is_named_once(tmp_path, monkeypatch, capsys):
    """A module whose library exports no thread setter costs one stderr line
    naming it; the run and its exit code go on unchanged."""
    argv = ("solve", "h_list=1/8 1/16 1/32")
    assert _run(tmp_path, *argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(cli, "_BLAS_USERS", cli._BLAS_USERS + ("_ctypes",))
    assert _run(tmp_path, *argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "degenlab: no OpenBLAS thread setter found through _ctypes; "
        "its BLAS keeps its own thread count"]


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
