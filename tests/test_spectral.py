"""Trace/Hardy quotients, stability sweeps, growth monitor, isometries."""

import math

import numpy as np
import pytest

import degenlab as dl
from degenlab.spectral import (boundary_hardy_like_omega_trace, flat_form_energy,
                               weighted_dirichlet_energy)

H_COARSE = 1 / 16
H_MID = 1 / 32


def test_trace_eigen_unweighted():
    r = dl.trace_eigen(0.0, 0.0, H_MID)
    assert r.lam == pytest.approx(1.0, abs=0.01)
    assert r.residual <= 1e-8


def test_trace_eigen_sharp_constants():
    for b in (0.5, -0.5):
        r = dl.trace_eigen(b, 0.0, H_MID)
        assert r.lam == pytest.approx(1.0 - b, abs=0.05)
        assert r.lam >= 1.0 - b - 1e-9          # conformity: discrete >= continuum


def test_trace_eigen_supersingular_exponents():
    for b, want in ((-1.5, 2.5), (-3.0, 4.0)):
        r = dl.trace_eigen(b, 0.0, H_MID)
        assert r.route == "transformed"
        assert r.lam == pytest.approx(want, abs=0.05)
        assert r.lam >= want - 1e-9


def test_trace_routes_agree_in_integrable_range():
    for b in (0.5, -0.5):
        d = dl.trace_eigen(b, 0.0, H_MID, route="direct")
        t = dl.trace_eigen(b, 0.0, H_MID, route="transformed")
        assert d.lam == pytest.approx(t.lam, abs=0.02)


def test_trace_direct_route_rejects_supersingular():
    with pytest.raises(ValueError):
        dl.trace_eigen(-1.5, 0.0, H_COARSE, route="direct")
    with pytest.raises(ValueError):
        dl.trace_eigen(1.2, 0.0, H_COARSE)


def test_conformity_monotone_under_refinement():
    lams = [dl.trace_eigen(0.5, 0.0, h).lam for h in (1 / 8, 1 / 16, 1 / 32)]
    assert lams[0] + 1e-8 >= lams[1] >= lams[2] - 1e-8
    assert lams[1] <= lams[0] + 1e-8


def test_rayleigh_quotient_consistency():
    r = dl.trace_eigen(0.3, 0.2, H_COARSE)
    assert r.residual <= 1e-8
    assert r.iterations >= 1


def test_scale_invariance_of_quotients():
    l1 = dl.hardy_quotient(lambda y: np.ones_like(y), H_COARSE).lam
    l2 = dl.hardy_quotient(lambda y: 7.3 * np.ones_like(y), H_COARSE).lam
    assert l1 == pytest.approx(l2, rel=1e-12)


def test_hardy_flat_bracket_and_monotonicity():
    lams = [dl.hardy_quotient(None, h).lam for h in (1 / 16, 1 / 32, 1 / 64)]
    assert all(l >= 0.25 for l in lams)            # conformity lower bound
    assert lams[0] >= lams[1] >= lams[2]           # nested spaces
    assert 0.25 <= lams[2] <= 0.40


def test_hardy_weighted_stable_across_eps():
    vals = [dl.hardy_quotient(dl.WeightFamily(0.5, e), H_COARSE).lam
            for e in (0.0, 0.1, 1.0)]
    assert all(v > 0.05 for v in vals)
    assert max(vals) <= 5.0 * min(vals)


def test_boundary_hardy_positive_and_stable():
    base = dl.boundary_hardy_quotient(None, 1 / 16).lam
    fine = dl.boundary_hardy_quotient(None, 1 / 32).lam
    assert base > 0 and fine > 0
    assert abs(base - fine) <= 0.1 * max(base, fine)


def test_boundary_hardy_weighted_uniform_in_eps():
    vals = [dl.boundary_hardy_quotient(dl.WeightFamily(-1.0, e), H_COARSE).lam
            for e in (0.0, 0.1, 1.0)]
    assert all(v > 0.05 for v in vals)


def test_boundary_hardy_omega_inverse_positive():
    r = dl.boundary_hardy_quotient(dl.WeightFamily(0.5, 0.3), H_COARSE,
                                   kind="omega_inverse")
    assert r.lam > 0
    assert r.route == "transformed"


def test_eigen_sweep_constant_weight_cancels():
    rows = dl.eigen_stability_sweep(0.0, [1.0, 4.0, 16.0], H_COARSE, form="rho")
    lams = [l for _, l, _ in rows]
    assert max(lams) - min(lams) < 1e-9
    assert lams[0] == pytest.approx(dl.trace_eigen(0.0, 0.0, H_COARSE).lam, abs=1e-9)


def test_eigen_sweep_rho_converges():
    rows = dl.eigen_stability_sweep(0.5, [1.0, 4.0, 16.0, 64.0], 1 / 64, form="rho")
    lams = [l for _, l, _ in rows]
    assert abs(lams[-1] - 0.5) < abs(lams[0] - 0.5)
    assert abs(lams[-1] - 0.5) <= 0.05


def test_eigen_sweep_omega_form_approaches_3_minus_a():
    rows = dl.eigen_stability_sweep(-1.0, [1.0, 4.0, 16.0, 64.0], H_MID,
                                    form="omega_inverse")
    lams = [l for _, l, _ in rows]
    assert abs(lams[-1] - 4.0) < abs(lams[0] - 4.0)
    assert lams[-1] == pytest.approx(4.0, abs=0.1)


def test_eigen_sweep_rho_requires_integrable():
    with pytest.raises(ValueError):
        dl.eigen_stability_sweep(-1.5, [1.0], H_COARSE, form="rho")


def test_growth_monitor_exact_homogeneous():
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", H_MID)

    def ue(x, y):
        return math.copysign(abs(y) ** (1 - a), y)

    fld = dl.DiscreteField.sample(g, ue, "odd")
    rows = dl.growth_monitor(fld, a, [0.25, 0.5, 0.75, 1.0], trace=ue)
    norm = [c for _, _, c in rows]
    assert max(norm) / min(norm) <= 1.02


def test_growth_monitor_zero_field():
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    fld = dl.DiscreteField(g, np.zeros(g.ncells), "odd")
    rows = dl.growth_monitor(fld, 0.0, [0.5, 1.0])
    assert all(H == 0.0 for _, H, _ in rows)


def test_growth_monitor_perturbed_nondecreasing():
    """Trace = y^{1-a}(1 + 0.1 x): the perturbation x y^{1-a} is itself a
    homogeneous solution of degree 2-a (mode-decomposition oracle), so the
    normalized column is exactly monotone up to discretization."""
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", H_MID)

    def trace(x, y):
        return math.copysign(abs(y) ** (1 - a), y) * (1.0 + 0.1 * x)

    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")
    rep = dl.solve_linear(op, op.rhs(trace=trace))
    rows = dl.growth_monitor(rep.field, a, [0.25, 0.5, 0.75, 1.0], trace=trace)
    norm = [c for _, _, c in rows]
    assert all(n2 >= n1 * (1 - 0.02) for n1, n2 in zip(norm, norm[1:]))


def test_perturbation_mode_is_discretely_harmonic():
    # oracle for the mode decomposition: x * y^{1-a} solves the weighted
    # problem exactly in the discrete scheme as well
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", 1 / 16)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")

    def mode(x, y):
        return x * math.copysign(abs(y) ** (1 - a), y)

    rep = dl.solve_linear(op, op.rhs(trace=mode))
    ex = dl.DiscreteField.sample(g, mode, "odd")
    assert np.max(np.abs(rep.field.values - ex.values)) < 1e-10


def test_isometry_round_trip_and_identity_a0():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    fam0 = dl.WeightFamily(0.0, 0.5)
    u = dl.DiscreteField.sample(g, lambda x, y: math.sin(x) * y, "odd")
    v = dl.isometry_transform(u, fam0, "to_flat")
    assert np.max(np.abs(v.values - u.values)) < 1e-14      # a=0 -> identity
    fam = dl.WeightFamily(0.5, 1.0)
    v2 = dl.isometry_transform(u, fam, "to_flat")
    u2 = dl.isometry_transform(v2, fam, "from_flat")
    assert np.max(np.abs(u2.values - u.values)) < 1e-12


def test_isometry_energy_identity_on_bump():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    fam = dl.WeightFamily(0.5, 1.0)

    def bump(x, y):
        r2 = (x * x + (y - 0.5) ** 2) / 0.04
        return math.exp(-r2 / (1 - r2)) if r2 < 1 else 0.0

    u = dl.DiscreteField.sample(g, bump, "even")
    v = dl.isometry_transform(u, fam, "to_flat")
    e1 = weighted_dirichlet_energy(u, dl.RhoWeight(fam))
    e2 = flat_form_energy(v, fam.a, fam.eps)
    assert abs(e1 - e2) <= 0.02 * abs(e1)


def test_omega_trace_quotient_id():
    r = boundary_hardy_like_omega_trace(0.5, 0.5, H_COARSE)
    assert r.lam > 0
    assert "omega_inv_trace" in r.quotient_id
