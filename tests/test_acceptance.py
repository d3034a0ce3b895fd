"""Acceptance gate: every criterion at its stated tolerance, one line each.

Two sub-assertions are intentionally red and documented in the test
docstrings: the quoted derivative landmark v'(5.1) = 0.001860 (the directly
computed derivative is 0.0186092, confirmed by two independent methods; the
quoted figure is a misprinted decimal) and the rectangle positivity of the
v-form reduction (which dips below zero inside the rectangle; the underlying
exact certificate is positive there and is asserted green alongside).
"""

import filecmp
import os
import time

import numpy as np
import pytest

import degenlab as dl
from degenlab.cli import run as cli_run
from degenlab.ratio import aux_residual


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_sharp_trace_eigenvalue():
    ok = True
    details = []
    for a in (-0.5, 0.0, 0.5):
        t0 = time.time()
        lam64 = dl.trace_eigen(a, 0.0, 1 / 64).lam
        lam128 = dl.trace_eigen(a, 0.0, 1 / 128).lam
        dt = time.time() - t0
        e64, e128 = abs(lam64 - (1 - a)), abs(lam128 - (1 - a))
        good = e64 <= 0.05 and e128 <= e64 and dt <= 60.0
        ok &= good
        details.append(f"a={a}: err {e64:.4f}->{e128:.4f} in {dt:.1f}s")
    report(1, ok, "trace eigenvalue 1-a at h=1/64 within 0.05, improving at h=1/128; "
           + "; ".join(details))
    assert ok


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_auxiliary_eigenvalue():
    ok = True
    for a in (0.5, -1.0):
        lam = dl.trace_eigen(a - 2.0, 0.0, 1 / 64).lam
        ok &= abs(lam - (3.0 - a)) <= 0.1
    report(2, ok, "auxiliary trace eigenvalue 3-a within 0.1 at h=1/64")
    assert ok


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_hardy_constant():
    lams = [dl.hardy_quotient(None, h).lam for h in (1 / 16, 1 / 32, 1 / 64)]
    ok = 0.25 <= lams[-1] <= 0.40 and lams[0] >= lams[1] >= lams[2]
    report(3, ok, f"flat Hardy quotient {lams[-1]:.4f} in [0.25, 0.40], "
           f"monotone {['%.4f' % v for v in lams]}")
    assert ok


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_scalar_landmarks_and_phi():
    t0 = time.time()
    ok_v = abs(dl.v_limit(5.1) - 0.95774) <= 1e-4
    _, vmin = dl.v_minimum()
    ok_min = abs(vmin - 0.77836) <= 1e-4
    phi = dl.verify_phi_bound([0.9, 0.5, 0.0, -1.0, -3.0, -10.0])
    ok_phi = all(r.passed for r in phi)
    dt = time.time() - t0
    ok = ok_v and ok_min and ok_phi and dt <= 120.0
    report(4, ok, f"v(5.1), min v, and inf Phi_a > -1/4 for six exponents ({dt:.0f}s)")
    assert ok


def test_criterion_4_v_prime_landmark_as_quoted():
    """Intentionally red: the quoted landmark 0.001860 is a misprinted decimal.

    The derivative of v(t) = e^(t^2/2)/(t int_0^t e^(s^2/2)) at t = 5.1 is
    0.0186092 by the exact identity v' = ((t^2-1)/t) v - t v^2 and by central
    differences (they agree to 1e-9); the quoted digits match a 0.1-step
    forward difference v(5.1) - v(5.0) = 0.00193.  The positivity the value
    is used for holds and is asserted in the companion test."""
    vp = dl.v_limit_deriv(5.1)
    ok = abs(vp - 0.001860) <= 1e-4
    report(4, ok, f"v'(5.1) equals the quoted 0.001860 +- 1e-4 (computed {vp:.7f})")
    assert ok


def test_criterion_4_v_prime_positivity_verified():
    vp = dl.v_limit_deriv(5.1)
    h = 1e-6
    fd = (dl.v_limit(5.1 + h) - dl.v_limit(5.1 - h)) / (2 * h)
    ok = vp > 0 and abs(vp - fd) <= 1e-6
    report(4, ok, f"v'(5.1) = {vp:.7f} > 0 (identity and differences agree)")
    assert ok


def test_criterion_4_gamma_rectangle_as_specified():
    """Intentionally red: the v-form reduction is not positive on the rectangle.

    Certified witness ~ -3.47 near (a, t) = (-17.9, 2.41); the exact
    certificate (next test) is positive there, so the coercivity conclusion
    survives -- only this particular printed reduction fails."""
    rep = dl.verify_gamma_rectangle(form="v_bound")
    report(4, rep.passed,
           f"v-form rectangle positivity as quoted (bound {rep.certified_infimum_lower_bound:.3f}, "
           f"min sample {rep.min_sample:.3f} at {rep.argmin})")
    assert rep.passed


def test_criterion_4_gamma_rectangle_exact_certificate():
    rep = dl.verify_gamma_rectangle(form="exact")
    ok = rep.passed and rep.certified_infimum_lower_bound > 0
    report(4, ok, f"exact-form rectangle positivity (bound "
           f"{rep.certified_infimum_lower_bound:.3f} > 0)")
    assert ok


# -- 5 -----------------------------------------------------------------------

def test_criterion_5_psi_bounds():
    ok = True
    for a in (-2.0, -0.5, 0.5):
        ys = np.geomspace(1e-6, 1.0, 10_000)
        probes = [dl.psi(a, eps, ys) for eps in (0.01, 0.1, 1.0)]
        sup = max(max(float(p.max()) for p in probes), 1.0, 1.0 - a)
        inf = min(min(float(p.min()) for p in probes), 1.0, 1.0 - a)
        ok &= abs(sup - max(1.0, 1.0 - a)) <= 1e-4
        ok &= abs(inf - min(1.0, 1.0 - a)) <= 1e-4
    report(5, ok, "attained sup/inf of psi equal max/min{1, 1-a} within 1e-4")
    assert ok


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_ratio_equation_residual_decay():
    ok = True
    rates = []
    for a in (0.5, -1.5):
        fam = dl.WeightFamily(a, 0.0)
        sol = dl.CharacteristicSolution(fam)
        b = 2.0 - a

        def u_exact(x, y, a=a):
            return np.copysign(np.abs(y) ** (1 - a), y) \
                * np.cos(np.pi * x / 2) * (1 + 0.5 * y * y)

        def f(x, y, a=a, b=b):
            return (np.copysign(np.abs(y) ** (1 - a), y) * np.cos(np.pi * x / 2)
                    * (np.pi ** 2 / 4.0 * (1 + 0.5 * y * y) - (b + 1.0)))

        prob = dl.OddProblem(sol=sol, f=f, u_exact=u_exact)
        r32 = aux_residual(prob, dl.build_half_grid(1, "half_rectangle", 1 / 32))
        r64 = aux_residual(prob, dl.build_half_grid(1, "half_rectangle", 1 / 64))
        rates.append(r32 / r64)
        ok &= r32 / r64 >= 3.0
    report(6, ok, f"quotient-equation residual decay 1/32 -> 1/64: "
           f"{['%.2f' % r for r in rates]} (need >= 3)")
    assert ok


# -- 7 -----------------------------------------------------------------------

def _family(a, mu_kind):
    if mu_kind == "const":
        mu_inv = None
    else:
        def mu_inv(x, y):
            return 1.0 / (1.0 + 0.1 * x * x)

    def f(x, y):
        return np.abs(y) ** (1.0 - a) * np.cos(np.pi * x)

    def tf(x, y):
        return np.cos(np.pi * x / 2.0) * (1.0 + 0.5 * y * y)

    return dl.ProblemFamily(a=a, f=f, trace_factor=tf, mu_inverse=mu_inv,
                            name=f"a={a},mu={mu_kind}")


@pytest.mark.parametrize("a,mu_kind", [(0.5, "const"), (0.5, "quadratic"),
                                       (-1.5, "const"), (-1.5, "quadratic")])
def test_criterion_7_eps_stability_sweeps(a, mu_kind):
    t0 = time.time()
    rep = dl.epsilon_sweep(_family(a, mu_kind), [1.0, 0.3, 0.1, 0.03, 0.01, 0.0],
                           0.4, mode="ratio_c0", grid_h=1 / 64)
    dt = time.time() - t0
    ok = rep.passed and dt <= 600.0
    report(7, ok, f"sweep a={a} mu={mu_kind}: ratio {rep.uniformity_ratio:.3f} <= 3, "
           f"slope {rep.trend_slope:.3f} <= 0.1 ({dt:.0f}s)")
    assert ok


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_exponent_optimality():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 256)
    f1 = dl.DiscreteField.sample(g, lambda x, y: np.copysign(np.abs(y) ** 0.5, y), "odd")
    est1 = dl.exponent_estimate(f1, (0.0, 0.0))
    f2 = dl.DiscreteField.sample(g, lambda x, y: np.copysign(np.abs(y) ** 1.5, y), "odd")
    est2 = dl.exponent_estimate(f2, (0.0, 0.0))
    ok = abs(est1.alpha_hat - 0.5) <= 0.05 and est2.alpha_hat >= 0.95
    report(8, ok, f"exponent fit: a=0.5 -> {est1.alpha_hat:.3f} (want 0.5 +- 0.05), "
           f"a=-0.5 -> {est2.alpha_hat:.3f} (capped, want >= 0.95)")
    assert ok


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_growth_monotonicity():
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", 1 / 32)
    r_list = [0.25, 0.5, 0.75, 1.0]

    def exact(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y)

    fld = dl.DiscreteField.sample(g, exact, "odd")
    rows = dl.growth_monitor(fld, a, r_list, trace=exact)
    norm = [c for _, _, c in rows]
    ok_const = max(norm) / min(norm) <= 1.02

    def trace(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * (1.0 + 0.1 * x)

    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")
    rep = dl.solve_linear(op, op.rhs(trace=trace))
    rows2 = dl.growth_monitor(rep.field, a, r_list, trace=trace)
    norm2 = [c for _, _, c in rows2]
    ok_mono = all(n2 >= n1 * 0.98 for n1, n2 in zip(norm2, norm2[1:]))
    ok = ok_const and ok_mono
    report(9, ok, f"normalized growth: exact spread "
           f"{max(norm) / min(norm) - 1:.4f} <= 2%, perturbed nondecreasing {ok_mono}")
    assert ok


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_fermi_demo():
    radius, a = 2.0, 0.5
    curve = dl.EmbeddedCurve.circle(radius, arc=2.0, theta0=-0.5)
    step = 1e-5
    worst = 0.0
    for t in np.linspace(0.05, 0.95, 7):
        for y in (0.0, 0.25, 0.5):
            mu = dl.fermi_mu(curve, float(t), float(y))
            zp = curve.point(float(t) + step, float(y))
            zm = curve.point(float(t) - step, float(y))
            worst = max(worst, abs(mu - float(np.linalg.norm(zp - zm) / (2 * step))))
    ok_mu = worst <= 1e-6

    fam = dl.ProblemFamily(
        a=a,
        f=lambda x, y: np.abs(y) ** 0.5 * np.cos(np.pi * x),
        trace_factor=lambda x, y: np.cos(np.pi * x / 2.0) * (1 + 0.5 * y * y),
        mu_inverse=lambda x, y: 1.0 / dl.fermi_mu(curve, x, y),
        name="fermi-circle")
    eps_list = [1.0, 0.1, 0.01, 0.0]
    solutions = dl.solve_family(fam, eps_list, grid_h=1 / 32)
    rep_c0 = dl.measure_sweep(fam, solutions, 0.4, mode="ratio_c0")
    rep_c1 = dl.measure_sweep(fam, solutions, 0.4, mode="ratio_c1", restricted="sqrt_eps")
    rep_c1u = dl.measure_sweep(fam, solutions, 0.4, mode="ratio_c1")
    ok = ok_mu and rep_c0.passed and rep_c1.passed
    report(10, ok, f"circle chart factor within {worst:.1e} of the Jacobian; "
           f"quotient tables: C0 ratio {rep_c0.uniformity_ratio:.2f}, restricted C1 "
           f"ratio {rep_c1.uniformity_ratio:.2f} (unrestricted reported: "
           f"{rep_c1u.uniformity_ratio:.2f})")
    assert ok


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_byte_determinism(tmp_path):
    def full_suite(outdir):
        os.environ["DEGENLAB_OUT"] = str(outdir)
        try:
            cli_run(["eigen", "a=0.5", "h=0.03125", "aux_a=0.5", "r_list=1 4 16"])
            cli_run(["sweep", "a=0.5", "h=0.03125", "eps_list=1 0.1 0.01 0"])
            cli_run(["certify", "budget=50000"])
            cli_run(["solve", "h_list=0.125 0.0625 0.03125"])
            cli_run(["fermi-demo", "h=0.0625", "eps_list=1 0.1 0.01 0"])
            cli_run(["report"])
        finally:
            os.environ.pop("DEGENLAB_OUT", None)

    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir()
    d2.mkdir()
    full_suite(d1)
    full_suite(d2)
    names = sorted(p.name for p in d1.iterdir())
    same = names == sorted(p.name for p in d2.iterdir())
    identical = all(filecmp.cmp(d1 / n, d2 / n, shallow=False) for n in names)
    ok = same and identical
    report(11, ok, f"two full runs produce byte-identical artifacts ({len(names)} files)")
    assert ok
