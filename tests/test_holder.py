"""Seminorms, exponent fitting, admissibility windows, sweep harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degenlab as dl

H = 1 / 32
FULL = dl.Region(x_halfwidth=1.0, y_max=1.0)


def sample(fn, parity="none", h=H):
    g = dl.build_half_grid(1, "half_rectangle", h)
    return dl.DiscreteField.sample(g, fn, parity)


def test_constant_field_zero():
    assert dl.holder_seminorm(sample(lambda x, y: 4.2), 0.5, dl.Region()) == 0.0


def test_linear_field_alpha_one():
    f = sample(lambda x, y: y, "odd")
    assert dl.holder_seminorm(f, 1.0, FULL) == pytest.approx(1.0, rel=1e-12)


def test_sqrt_seminorm_approaches_one_under_refinement():
    vals = []
    for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
        f = sample(lambda x, y: abs(y) ** 0.5, h=h)
        vals.append(dl.holder_seminorm(f, 0.5, dl.Region()))
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > 0.8
    assert all(v <= 1.0 + 1e-9 for v in vals)


def test_region_monotonicity():
    f = sample(lambda x, y: math.sin(3 * x) * y)
    small = dl.holder_seminorm(f, 0.5, dl.Region(0.25, 0.25))
    big = dl.holder_seminorm(f, 0.5, dl.Region(0.75, 0.75))
    assert big >= small


@settings(max_examples=25, derandomize=True)
@given(c=st.floats(0.01, 100.0))
def test_value_homogeneity_exact(c):
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    base = dl.DiscreteField.sample(g, lambda x, y: math.cos(2 * x) * y * y, "even")
    scaled = dl.DiscreteField(g, c * base.values, "even")
    s1 = dl.holder_seminorm(base, 0.4, dl.Region())
    s2 = dl.holder_seminorm(scaled, 0.4, dl.Region())
    assert s2 == pytest.approx(c * s1, rel=1e-12)


def test_budget_doubling_stability():
    f = sample(lambda x, y: abs(y) ** 0.7 * math.cos(x))
    s1 = dl.holder_seminorm(f, 0.5, FULL, pair_budget=50_000)
    s2 = dl.holder_seminorm(f, 0.5, FULL, pair_budget=100_000)
    assert abs(s2 - s1) <= 0.05 * max(s1, s2)


def test_empty_region_error():
    f = sample(lambda x, y: y)
    with pytest.raises(dl.EmptyRegionError):
        dl.holder_seminorm(f, 0.5, dl.Region(x_halfwidth=1e-9, y_max=1e-9))


def test_sweep_abort_carries_partial_table():
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5,
                           trace_factor=lambda x, y: 1.0, name="abort")
    with pytest.raises(dl.SweepAbort) as exc:
        # an unreachable solver tolerance forces the failure on the first eps
        dl.epsilon_sweep(fam, [1.0, 0.1], 0.4, grid_h=1 / 16, solver_tol=1e-30)
    assert isinstance(exc.value.partial, list)


def test_c1alpha_affine_zero():
    f = sample(lambda x, y: 1.0 + 2.0 * x - 3.0 * y, "none")
    sup, semi = dl.c1alpha_seminorm(f, 0.5, dl.Region())
    assert semi < 1e-10
    assert sup == pytest.approx(math.hypot(2.0, 3.0), rel=1e-10)


def test_c1alpha_quadratic_gradient():
    f = sample(lambda x, y: y * y / 2.0, "even")
    sup, semi = dl.c1alpha_seminorm(f, 1.0, FULL)
    assert sup == pytest.approx(1.0, abs=0.05)
    assert semi == pytest.approx(1.0, abs=0.05)    # grad = (0, y)


def test_c1alpha_power_scaling():
    # u = y^{3/2}: grad_y = 1.5 y^{1/2}, so the gradient's alpha=1/2 seminorm
    # tracks 1.5 x the plain seminorm of y^{1/2} (analytic gradient oracle)
    h = 1 / 64
    f = sample(lambda x, y: abs(y) ** 1.5, parity="even", h=h)
    _, semi = dl.c1alpha_seminorm(f, 0.5, dl.Region())
    ref = dl.holder_seminorm(sample(lambda x, y: abs(y) ** 0.5, h=h), 0.5, dl.Region())
    assert semi == pytest.approx(1.5 * ref, rel=0.1)
    assert semi <= 1.5 + 1e-9


def test_exponent_estimate_values():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    u = dl.DiscreteField.sample(g, lambda x, y: y, "odd")
    est = dl.exponent_estimate(u, (0.0, 0.0))
    assert est.alpha_hat == pytest.approx(1.0, abs=0.05)
    flat = dl.DiscreteField.sample(g, lambda x, y: 1.0, "even")
    assert dl.exponent_estimate(flat, (0.0, 0.0)).smooth


def test_alpha_window_table():
    # n=1, a=0.5: aux dimension 4; 2 - 4/10 = 1.6 clips to 1
    assert dl.alpha_window("ratio_c1", 1, 0.5, 10.0) == pytest.approx(1.0 - 4.0 / 10.0)
    assert dl.alpha_window("ratio_c0", 1, 0.5, 10.0, 40.0) == pytest.approx(0.9)
    # 2 - 4/10 = 1.6 from p1 alone, clipped into (0, 1)
    assert dl.alpha_window("ratio_c1", 1, 0.5, 10.0) <= 1.0
    assert dl.alpha_window("ratio_c0", 1, 0.5, 10.0, 1e9) == pytest.approx(1.0)
    assert dl.alpha_window("aux_c0", 1, -1.0, 10.0, 10.0, 10.0) == pytest.approx(0.5)
    assert dl.alpha_window("aux_c1", 1, -1.0, 10.0, 20.0) == pytest.approx(0.5)
    # odd-direct: the 1 - a cap binds for a in (0, 1)
    assert dl.alpha_window("odd_direct_c0", 1, 0.5, 100.0, 100.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        dl.alpha_window("ratio_c0", 1, 0.5, 10.0)


def test_sweep_a0_exactly_uniform():
    fam = dl.ProblemFamily(a=0.0, f=lambda x, y: y * math.cos(math.pi * x),
                           trace_factor=lambda x, y: math.cos(math.pi * x / 2),
                           name="flat")
    rep = dl.epsilon_sweep(fam, [1.0, 0.1, 0.0], 0.4, grid_h=1 / 16)
    assert rep.uniformity_ratio == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.trend_slope) < 1e-9
    assert rep.passed


def test_sweep_alpha_window_violation_detected():
    """odd-direct mode at alpha above 1 - a: the direct field is only
    y^{1-a}-regular, which the exponent fit reveals."""
    a = 0.5
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    u0 = dl.DiscreteField.sample(
        g, lambda x, y: math.copysign(abs(y) ** (1 - a), y), "odd")
    est = dl.exponent_estimate(u0, (0.0, 0.0))
    alpha_req = 0.7
    window = dl.alpha_window("odd_direct_c0", 1, a, 100.0, 100.0)
    assert alpha_req > window                       # the harness must flag this
    assert est.alpha_hat == pytest.approx(0.5, abs=0.1)


def test_sweep_restricted_region_skips_large_eps():
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5,
                           trace_factor=lambda x, y: 1.0 + 0.1 * y * y, name="r")
    rep = dl.epsilon_sweep(fam, [1.0, 0.04, 0.0], 0.4, mode="ratio_c1",
                           grid_h=1 / 16, restricted="sqrt_eps")
    eps_used = [e for e, *_ in rep.per_eps]
    assert 1.0 not in eps_used                      # sqrt(1) exceeds the region
    assert 0.0 in eps_used
    assert rep.restricted == "sqrt_eps"


def test_moser_ratio_properties():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    ones = dl.DiscreteField(g, np.ones(g.ncells), "even")
    r = dl.moser_bound_check(ones, 0.5, 0.1)
    # u == 1, no data: ratio = 1 / ||1||_{L^beta(omega)}
    y = g.centers[:, 1]
    om = dl.omega(dl.WeightFamily(0.5, 0.1), y)
    want = 1.0 / math.sqrt(float(np.sum(om)) * g.h ** 2)
    assert r == pytest.approx(want, rel=1e-12)
    # scaling invariance u -> 2u, f -> 2f
    u = dl.DiscreteField.sample(g, lambda x, y: 1.0 + y * math.cos(x), "none")
    u2 = dl.DiscreteField(g, 2.0 * u.values, "none")
    f = lambda x, y: y * y
    f2 = lambda x, y: 2.0 * y * y
    r1 = dl.moser_bound_check(u, 0.5, 0.1, f=f)
    r2 = dl.moser_bound_check(u2, 0.5, 0.1, f=f2)
    assert r1 == pytest.approx(r2, rel=1e-12)
    with pytest.raises(ZeroDivisionError):
        dl.moser_bound_check(dl.DiscreteField(g, np.zeros(g.ncells), "even"), 0.5, 0.1)


def test_moser_spread_across_eps():
    def f(x, y):
        return abs(y) ** 0.5 * math.cos(math.pi * x)

    fam = dl.ProblemFamily(a=0.5, f=f,
                           trace_factor=lambda x, y: math.cos(math.pi * x / 2),
                           name="m")
    ratios = []
    for eps in (1.0, 0.1, 0.01):
        sol = fam.solution(eps)
        g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
        w = dl.RhoWeight(sol.family)
        op = dl.assemble(g, w, parity="odd")
        from degenlab.holder import _family_trace
        rep = dl.solve_linear(op, op.rhs(f=f, trace=_family_trace(fam, sol)))
        wq = dl.ratio_field(rep.field, sol)
        ratios.append(dl.moser_bound_check(wq, 0.5, eps, f=f))
    med = sorted(ratios)[1]
    assert all(r <= 3.0 * med for r in ratios)


def test_sweep_integrates_each_segment_once(monkeypatch):
    """Per eps, one quad call per resistance segment (ny + 1 per column), per
    top trace point and per side trace point: the quotient and the data norms
    reuse the resistances' segment integrals."""
    import degenlab.weights as weights

    calls = []
    quad = weights.quad

    def counting_quad(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(weights, "quad", counting_quad)
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5 * math.cos(math.pi * x),
                           trace_factor=lambda x, y: math.cos(math.pi * x / 2.0),
                           mu_inverse=lambda x, y: 1.0 / (1.0 + 0.1 * x * x),
                           name="count")
    h = 1 / 16
    g = dl.build_half_grid(1, "half_rectangle", h)
    eps_list = [1.0, 0.1, 0.0]
    dl.epsilon_sweep(fam, eps_list, 0.4, grid_h=h)
    per_eps = g.nx * (g.ny + 1) + g.nx + 2 * g.ny
    assert len(calls) == len(eps_list) * per_eps
