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
    f = sample(lambda x, y: np.sin(3 * x) * y)
    small = dl.holder_seminorm(f, 0.5, dl.Region(0.25, 0.25))
    big = dl.holder_seminorm(f, 0.5, dl.Region(0.75, 0.75))
    assert big >= small


@settings(max_examples=25, derandomize=True)
@given(c=st.floats(0.01, 100.0))
def test_value_homogeneity_exact(c):
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    base = dl.DiscreteField.sample(g, lambda x, y: np.cos(2 * x) * y * y, "even")
    scaled = dl.DiscreteField(g, c * base.values, "even")
    s1 = dl.holder_seminorm(base, 0.4, dl.Region())
    s2 = dl.holder_seminorm(scaled, 0.4, dl.Region())
    assert s2 == pytest.approx(c * s1, rel=1e-12)


def brute_force(values, points, alpha):
    """max over all pairs i < j of |values_i - values_j| / |points_i - points_j|^alpha."""
    num = np.abs(np.subtract.outer(values, values))
    dist = np.sqrt(sum(np.subtract.outer(c, c) ** 2 for c in points.T))
    i, j = np.triu_indices(len(values), 1)
    return float(np.max(num[i, j] / dist[i, j] ** alpha))


def gradient_cells(field, region):
    """(gx, gy, centres) at the region's cells whose centred stencil is
    complete, neighbor by neighbor; below the plane the parity ghost."""
    g = field.grid
    h = g.h
    ghost = {"odd": -1.0, "even": 1.0}.get(field.parity)

    def u(i, j):
        if j == -1 and ghost is not None:
            return ghost * u(i, 0)
        if 0 <= i < g.nx and 0 <= j < g.ny:
            return field.values[g.index[i, j]]
        return None

    out = []
    for c in np.nonzero(region.mask(g))[0]:
        x, y = g.centers[c]
        i, j = round((x + 1.0) / h - 0.5), round(y / h - 0.5)
        nb = [u(i + 1, j), u(i - 1, j), u(i, j + 1), u(i, j - 1)]
        if None not in nb:
            out.append(((nb[0] - nb[1]) / (2 * h), (nb[2] - nb[3]) / (2 * h), x, y))
    gx, gy, x, y = map(np.array, zip(*out))
    return gx, gy, np.stack([x, y], axis=1)


RESTRICTED = dl.Region(0.5, 0.5, y_min=math.sqrt(0.01))   # the sqrt_eps box at eps = 0.01


@pytest.mark.parametrize("region", [dl.Region(), FULL, RESTRICTED])
@pytest.mark.parametrize("seed", [0, 1])
def test_holder_seminorm_equals_all_pairs(region, seed):
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    f = dl.DiscreteField(g, np.random.default_rng(seed).standard_normal(g.ncells), "none")
    sel = region.mask(g)
    want = brute_force(f.values[sel], g.centers[sel], 0.4)
    assert dl.holder_seminorm(f, 0.4, region) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("region", [dl.Region(), FULL, RESTRICTED])
@pytest.mark.parametrize("parity", ["odd", "none"])
def test_c1alpha_seminorm_equals_all_pairs(region, parity):
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    f = dl.DiscreteField(g, np.random.default_rng(7).standard_normal(g.ncells), parity)
    gx, gy, pts = gradient_cells(f, region)
    sup, semi = dl.c1alpha_seminorm(f, 0.4, region)
    want = max(brute_force(gx, pts, 0.4), brute_force(gy, pts, 0.4))
    assert semi == pytest.approx(want, rel=1e-13)
    assert sup == pytest.approx(float(np.max(np.hypot(gx, gy))), rel=1e-13)


def test_holder_seminorm_equals_all_pairs_n2():
    g = dl.build_half_grid(2, "half_rectangle", 1 / 8)
    f = dl.DiscreteField(g, np.random.default_rng(3).standard_normal(g.ncells), "none")
    sel = dl.Region().mask(g)
    want = brute_force(f.values[sel], g.centers[sel], 0.4)
    assert dl.holder_seminorm(f, 0.4, dl.Region()) == pytest.approx(want, rel=1e-13)


def test_holder_seminorm_rejects_a_region_that_is_no_box():
    g = dl.build_half_grid(1, "half_disk", 1 / 16)
    f = dl.DiscreteField.sample(g, lambda x, y: y, "odd")
    with pytest.raises(ValueError, match="not a box"):
        dl.holder_seminorm(f, 0.5, FULL)


def test_empty_region_error():
    f = sample(lambda x, y: y)
    with pytest.raises(dl.EmptyRegionError):
        dl.holder_seminorm(f, 0.5, dl.Region(x_halfwidth=1e-9, y_max=1e-9))


def test_sweep_abort_carries_partial_table(monkeypatch):
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5,
                           trace_factor=lambda x, y: 1.0, name="abort")
    # an unreachable solver tolerance forces the failure on the first eps
    monkeypatch.setattr(dl.assembly, "SOLVER_TOL", 1e-30)
    with pytest.raises(dl.SweepAbort) as exc:
        dl.epsilon_sweep(fam, [1.0, 0.1], 0.4, mode="ratio_c0", grid_h=1 / 16)
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


def test_sweep_a0_exactly_uniform():
    fam = dl.ProblemFamily(a=0.0, f=lambda x, y: y * np.cos(np.pi * x),
                           trace_factor=lambda x, y: np.cos(np.pi * x / 2),
                           name="flat")
    rep = dl.epsilon_sweep(fam, [1.0, 0.1, 0.0], 0.4, mode="ratio_c0", grid_h=1 / 16)
    assert rep.uniformity_ratio == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.trend_slope) < 1e-9
    assert rep.passed


def test_exponent_fit_flags_alpha_above_one_minus_a():
    """odd-direct mode at alpha above 1 - a: the direct field is only
    y^{1-a}-regular, which the exponent fit reveals."""
    a = 0.5
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    u0 = dl.DiscreteField.sample(
        g, lambda x, y: np.copysign(np.abs(y) ** (1 - a), y), "odd")
    est = dl.exponent_estimate(u0, (0.0, 0.0))
    alpha_req = 0.7
    assert est.alpha_hat < alpha_req                # the fit must flag this
    assert est.alpha_hat == pytest.approx(1 - a, abs=0.1)


@pytest.mark.parametrize("a,eps,ok", [(0.5, 1.0, True), (0.5, 0.0, True), (0.5, 1e100, False),
                                       (0.5, 1e154, False), (0.5, 1e200, False),
                                       (0.0, 1e200, True), (-0.5, 1e200, False),
                                       (-30.0, 1.0, True), (-30.0, 0.0, False),
                                       (1.0 - 2.0 ** -52, 0.0, False),
                                       (1.0 - 2.0 ** -52, 1.0, False),
                                       (-30.0, 1e10, True), (-30.0, 3e10, False)])
def test_eps_step_rule(a, eps, ok):
    """rho finite and positive, and v at least the guard by its lower bound,
    at h = 1/16: v below it (eps = 1e100 and 1e154 at a = 0.5, eps = 0 at
    a = -30, and a next to 1 at eps = 1), rho infinite (1e200 at a = 0.5)
    or 0 (1e200 at a = -0.5), or v infinite at the top (3e10 at a = -30,
    where 1e10 gives v ~ 3e301).  The bound is conservative where rho^(-a)
    varies over [0, h/2]: at eps = 0 and a next to 1, v = y^(1-a) is near 1,
    but the bound (1-a) y^(1-a) is 2e-16.  Above eps = 1, the only entries
    the CLI refuses by it, it is within (1 + h^2/4)^(|a|/2) of v."""
    if ok:
        dl.holder._eps_step_rule(a, eps, 1 / 16, None)
    else:
        with pytest.raises(ValueError, match="range of double precision"):
            dl.holder._eps_step_rule(a, eps, 1 / 16, None)


def test_sweep_restricted_region_skips_large_eps():
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5,
                           trace_factor=lambda x, y: 1.0 + 0.1 * y * y, name="r")
    eps_list, h = [1.0, 0.04, 0.0], 1 / 16
    admitted = dl.holder.admissible_eps(eps_list, h, restricted="sqrt_eps")
    assert admitted == [0.04, 0.0]                  # sqrt(1) exceeds the region
    rep = dl.measure_sweep(fam, dl.solve_family(fam, admitted, grid_h=h), 0.4,
                           mode="ratio_c1", restricted="sqrt_eps")
    assert [e for e, *_ in rep.per_eps] == admitted
    assert rep.restricted == "sqrt_eps"
    assert rep.trend_slope == 0.0       # fitted over the eps measured: one is positive
    # measured from solves of every eps, eps = 1 included, the table is the same
    solutions = dl.solve_family(fam, eps_list, grid_h=h)
    rep_all = dl.measure_sweep(fam, solutions, 0.4, mode="ratio_c1", restricted="sqrt_eps")
    assert rep_all.per_eps == rep.per_eps
    assert rep_all.trend_slope == 0.0 and rep_all.passed == rep.passed


def test_sweep_integrates_each_segment_once(monkeypatch):
    """The work of a sweep on a product mu, counted on ``weights._gk21`` (one
    dqk21 pass), ``weights.hyp2f1`` and the factor samplers.  x-only
    mu^(-1) = 1/(1 + 0.1 x^2): N is chi, so no pass and one hyp2f1 call per
    eps > 0, on the half-spacing ladder; m^(-1) is sampled on the nx columns
    for the resistances and for v at the cell centres, on the x-face
    midpoints for mu, and on the Dirichlet faces for the trace.  y-only
    mu^(-1) = 1/(2 (1 - y/2)): exactly one 1-D pass per eps, on the
    (2 ny, 21) nodes of the half-spacing ladder, shared by every column;
    n^(-1) is sampled there and on the x-face midpoints.  The resistances,
    v and the traces all read the ladder, so scalar ``quad`` never runs (it
    would only for segments the pass rejects)."""
    import degenlab.weights as weights

    passes, hyp, quad_calls, m_calls, n_calls = [], [], [], [], []
    gk21, hyp2f1, quad = weights._gk21, weights.hyp2f1, weights.quad

    def counting_gk21(fvals, lo, hi):
        passes.append(fvals.shape)
        return gk21(fvals, lo, hi)

    def counting_hyp2f1(*args):
        hyp.append(1)
        return hyp2f1(*args)

    def counting_quad(*args, **kwargs):
        quad_calls.append(1)
        return quad(*args, **kwargs)

    def m_inv(x):
        m_calls.append(np.shape(x))
        return 1.0 / (1.0 + 0.1 * x * x)

    def n_inv(y):
        n_calls.append(np.shape(y))
        return 1.0 / (2.0 * (1.0 - y / 2.0))

    monkeypatch.setattr(weights, "_gk21", counting_gk21)
    monkeypatch.setattr(weights, "hyp2f1", counting_hyp2f1)
    monkeypatch.setattr(weights, "quad", counting_quad)
    h = 1 / 16
    g = dl.build_half_grid(1, "half_rectangle", h)
    eps_list = [1.0, 0.1, 0.0]
    xfaces, dirichlet = (g.nx + 1) * g.ny, 2 * g.ny + g.nx
    for mu_inverse in (dl.MuInverse(m_inv=m_inv), dl.MuInverse(n_inv=n_inv)):
        fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5 * np.cos(np.pi * x),
                               trace_factor=lambda x, y: np.cos(np.pi * x / 2.0),
                               mu_inverse=mu_inverse, name="count")
        dl.epsilon_sweep(fam, eps_list, 0.4, mode="ratio_c0", grid_h=h)
    per_eps = [(g.nx,), (xfaces,), (dirichlet,), (g.nx,)]
    assert m_calls == per_eps * len(eps_list)
    assert passes == [(2 * g.ny, 21)] * len(eps_list)
    assert n_calls == [(2 * g.ny, 21), (xfaces,)] * len(eps_list)
    assert len(hyp) == sum(eps > 0 for eps in eps_list)    # chi of the x-only sweep's ladders
    assert quad_calls == []


@pytest.mark.parametrize("mode,restricted", [("ratio_c0", "none"), ("ratio_c1", "sqrt_eps")])
def test_sweep_seminorms_equal_all_pairs(monkeypatch, mode, restricted):
    """Every seminorm a sweep reports is the max over all pairs of cells."""
    import degenlab.holder as holder

    seen = []
    name = "holder_seminorm" if mode == "ratio_c0" else "c1alpha_seminorm"
    seminorm = getattr(holder, name)

    def recording(field, alpha, region, *tables):
        out = seminorm(field, alpha, region, *tables)
        seen.append((field, alpha, region, out))
        return out

    monkeypatch.setattr(holder, name, recording)
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5 * np.cos(np.pi * x),
                           trace_factor=lambda x, y: np.cos(np.pi * x / 2.0),
                           mu_inverse=(lambda x: 1.0 / (1.0 + 0.1 * x * x), None), name="exact")
    solutions = dl.solve_family(fam, [1.0, 0.03, 0.01, 0.001, 0.0], grid_h=1 / 16)
    rep = dl.measure_sweep(fam, solutions, 0.4, mode=mode, restricted=restricted)
    assert len(seen) == len(rep.per_eps)
    for (field, alpha, region, out), (_, semi, _) in zip(seen, rep.per_eps):
        if mode == "ratio_c0":
            sel = region.mask(field.grid)
            want = brute_force(field.values[sel], field.grid.centers[sel], alpha)
            got = out
        else:
            gx, gy, pts = gradient_cells(field, region)
            want = max(brute_force(gx, pts, alpha), brute_force(gy, pts, alpha))
            got = out[1]
        assert got == semi == pytest.approx(want, rel=1e-13)


def test_sweep_rhs_matches_quad_trace_reference(monkeypatch):
    """With the fermi-demo mu^(-1) = 1/(2(1 - y/2)), which varies along the
    column, the right-hand side of every eps step (traces read from the
    ladder of N) equals one built from a per-face quad trace to 1e-12."""
    from scipy.integrate import quad

    from degenlab.assembly import AssembledOperator

    a = 0.5

    def n_inv(y):
        return 1.0 / (2.0 * (1.0 - y / 2.0))

    def f(x, y):
        return y ** (1.0 - a) * np.cos(np.pi * x)

    def trace_factor(x, y):
        return np.cos(np.pi * x / 2.0) * (1.0 + 0.5 * y * y)

    def reference_trace(eps):
        def v(x, y):
            if eps == 0.0:      # s^(-a) as the algebraic weight of QUADPACK's qaws
                return quad(n_inv, 0.0, y, weight="alg", wvar=(-a, 0.0),
                            epsabs=0.0, epsrel=1e-13)[0]
            return quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * n_inv(s),
                        0.0, y, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        def trace(x, y):        # the reference integrates face by face
            return (1.0 - a) * np.array([v(*p) for p in zip(x, y)]) * trace_factor(x, y)
        return trace

    seen = []
    rhs = AssembledOperator.rhs

    def recording(self, f=None, F=None, trace=None):
        out = rhs(self, f=f, F=F, trace=trace)
        seen.append((self, out))
        return out

    monkeypatch.setattr(AssembledOperator, "rhs", recording)
    fam = dl.ProblemFamily(a=a, f=f, trace_factor=trace_factor,
                           mu_inverse=dl.MuInverse(n_inv=n_inv), name="fermi")
    eps_list = [1.0, 0.1, 0.01, 0.0]
    dl.epsilon_sweep(fam, eps_list, 0.4, mode="ratio_c0", grid_h=1 / 16)
    assert len(seen) == len(eps_list)
    for eps, (op, got) in zip(eps_list, seen):
        want = rhs(op, f=f, trace=reference_trace(eps))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
