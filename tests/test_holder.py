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
    """Per eps, the resistances sample mu^(-1) once for the whole grid on an
    (nx (ny + 1), 21) array of dqk21 nodes, with x an (nx (ny + 1), 1) array
    of column positions; mu = 1/mu^(-1) is sampled once on the
    ((nx + 1) ny,) array of the x-face midpoints; and the side-face traces
    take one (2 ny, 21) pass over both sides x = -1, 1.  The quotient and the
    top-face traces read those column ladders, so scalar
    ``quad`` never runs: it would only for column segments the dqk21 pass
    rejects, of which this problem has none."""
    import degenlab.weights as weights

    quad_calls, segments, column_calls = [], [], []
    quad = weights.quad
    scalar = weights.CharacteristicSolution._quad

    def counting_quad(*args, **kwargs):
        quad_calls.append(1)
        return quad(*args, **kwargs)

    def recording_scalar(self, x, y0, y1):
        segments.append((x, y0, y1))
        return scalar(self, x, y0, y1)

    def mu_inv(x, y):
        if isinstance(y, np.ndarray):
            column_calls.append((np.shape(x), y.shape))
        return 1.0 / (1.0 + 0.1 * x * x)

    monkeypatch.setattr(weights, "quad", counting_quad)
    monkeypatch.setattr(weights.CharacteristicSolution, "_quad", recording_scalar)
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5 * np.cos(np.pi * x),
                           trace_factor=lambda x, y: np.cos(np.pi * x / 2.0),
                           mu_inverse=mu_inv, name="count")
    h = 1 / 16
    g = dl.build_half_grid(1, "half_rectangle", h)
    eps_list = [1.0, 0.1, 0.0]
    dl.epsilon_sweep(fam, eps_list, 0.4, mode="ratio_c0", grid_h=h)
    nres, nside = g.nx * (g.ny + 1), 2 * g.ny
    per_eps = [((nres, 1), (nres, 21)), (((g.nx + 1) * g.ny,), ((g.nx + 1) * g.ny,)),
               ((nside, 1), (nside, 21))]
    assert column_calls == per_eps * len(eps_list)
    assert quad_calls == [] and segments == []


@pytest.mark.parametrize("mode,restricted", [("ratio_c0", "none"), ("ratio_c1", "sqrt_eps")])
def test_sweep_seminorms_equal_all_pairs(monkeypatch, mode, restricted):
    """Every seminorm a sweep reports is the max over all pairs of cells."""
    import degenlab.holder as holder

    seen = []
    name = "holder_seminorm" if mode == "ratio_c0" else "c1alpha_seminorm"
    seminorm = getattr(holder, name)

    def recording(field, alpha, region):
        out = seminorm(field, alpha, region)
        seen.append((field, alpha, region, out))
        return out

    monkeypatch.setattr(holder, name, recording)
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: abs(y) ** 0.5 * np.cos(np.pi * x),
                           trace_factor=lambda x, y: np.cos(np.pi * x / 2.0),
                           mu_inverse=lambda x, y: 1.0 / (1.0 + 0.1 * x * x), name="exact")
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
    column ladders) equals one built from a per-face quad trace to 1e-12."""
    from scipy.integrate import quad

    from degenlab.assembly import AssembledOperator

    a = 0.5

    def mu_inv(x, y):
        return 1.0 / (2.0 * (1.0 - y / 2.0))

    def f(x, y):
        return y ** (1.0 - a) * np.cos(np.pi * x)

    def trace_factor(x, y):
        return np.cos(np.pi * x / 2.0) * (1.0 + 0.5 * y * y)

    def reference_trace(eps):
        def v(x, y):
            if eps == 0.0:      # s^(-a) as the algebraic weight of QUADPACK's qaws
                return quad(lambda s: mu_inv(x, s), 0.0, y, weight="alg", wvar=(-a, 0.0),
                            epsabs=0.0, epsrel=1e-13)[0]
            return quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * mu_inv(x, s),
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
    fam = dl.ProblemFamily(a=a, f=f, trace_factor=trace_factor, mu_inverse=mu_inv,
                           name="fermi")
    eps_list = [1.0, 0.1, 0.01, 0.0]
    dl.epsilon_sweep(fam, eps_list, 0.4, mode="ratio_c0", grid_h=1 / 16)
    assert len(seen) == len(eps_list)
    for eps, (op, got) in zip(eps_list, seen):
        want = rhs(op, f=f, trace=reference_trace(eps))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
