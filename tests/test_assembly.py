"""Flux-form assembly, solves, manufactured solutions, convergence orders."""

import itertools
import math
import re

import numpy as np
import pytest

import degenlab as dl
from degenlab.assembly import ParityError


def exact_field(grid, fn, parity="odd"):
    return dl.DiscreteField.sample(grid, fn, parity)


def test_identity_like_solve():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
    rep = dl.solve_linear(op, rhs)
    assert np.max(np.abs(rep.field.values - exact.values)) < 1e-12
    assert rep.relative_residual <= rep.tolerance


def test_poisson_1d_analytic_oracle():
    # -u'' = 1 along y with u(0) = u(1) = 0: u = y(1-y)/2, odd extension y(1-|y|)/2
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")

    def u_exact(x, y):
        return y * (1 - abs(y)) / 2.0

    rhs, exact = op.rhs(f=lambda x, y: 1.0, trace=u_exact), exact_field(g, u_exact)
    rep = dl.solve_linear(op, rhs)
    assert np.max(np.abs(rep.field.values - exact.values)) <= 1e-4


def test_characteristic_solution_is_discretely_exact():
    grids = (dl.build_half_grid(1, "half_rectangle", 1 / 16),
             dl.build_half_grid(2, "half_rectangle", 1 / 8),
             dl.build_half_grid(1, "half_disk", 1 / 8))
    for g, a in itertools.product(grids, (0.5, -0.5, -1.5, -2.5)):
        fam = dl.WeightFamily(a, 0.0)
        op = dl.assemble(g, dl.RhoWeight(fam), parity="odd")

        def ue(x, y, a=a):
            return np.copysign(np.abs(y) ** (1 - a), y)

        rhs = op.rhs(trace=ue)
        rep = dl.solve_linear(op, rhs)
        err = np.max(np.abs(rep.field.values - exact_field(g, ue).values))
        assert err < 1e-11, (g.describe(), a, err)


def test_characteristic_exact_across_refinements():
    a = 0.5
    for h in (1 / 16, 1 / 32, 1 / 64):
        g = dl.build_half_grid(1, "half_rectangle", h)
        op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")

        def ue(x, y):
            return np.copysign(np.abs(y) ** (1 - a), y)

        rep = dl.solve_linear(op, op.rhs(trace=ue))
        assert np.max(np.abs(rep.field.values - exact_field(g, ue).values)) < 1e-11


def test_interior_residual_of_sampled_characteristic():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 32)
    a = 0.5
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")
    u = exact_field(g, lambda x, y: np.copysign(np.abs(y) ** (1 - a), y))
    r = op.matrix @ u.values - op.rhs(trace=lambda x, y: np.copysign(np.abs(y) ** (1 - a), y))
    assert np.max(np.abs(r)) < 1e-12


def test_even_parity_annihilates_constants():
    # no flux through the plane: a constant feels only its outer trace
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.5, 0.0)), parity="even")
    r = op.matrix @ np.ones(g.ncells) - op.rhs(trace=lambda x, y: 1.0)
    assert np.max(np.abs(r)) < 1e-12


def test_planar_systems_factor_directly():
    # an n = 1 grid above DIRECT_SOLVE_MAX still takes the sparse LU
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    assert g.ncells > dl.assembly.DIRECT_SOLVE_MAX
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
    rep = dl.solve_linear(op, rhs)
    assert rep.method == "direct-sparse-lu"
    assert rep.iterations == 0 and rep.info == 0 and rep.converged
    assert np.max(np.abs(rep.field.values - exact.values)) < 1e-12


def test_iterative_solves_report_info(monkeypatch):
    # on an n = 2 grid above DIRECT_SOLVE_MAX Jacobi-CG runs; info 0 means converged
    monkeypatch.setattr(dl.assembly, "DIRECT_SOLVE_MAX", 10)
    g = dl.build_half_grid(2, "half_rectangle", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
    rep = dl.solve_linear(op, rhs)
    assert rep.method == "cg-jacobi"
    assert rep.info == 0 and rep.converged and rep.iterations > 0
    assert np.max(np.abs(rep.field.values - exact.values)) < 1e-9


def test_failed_krylov_solve_falls_back_to_lu(monkeypatch):
    # one iteration cannot converge: the CG info is kept, the LU solves
    monkeypatch.setattr(dl.assembly, "DIRECT_SOLVE_MAX", 0)
    monkeypatch.setattr(dl.assembly, "ITERATION_CAP", 1)
    g = dl.build_half_grid(2, "half_rectangle", 1 / 4)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
    rep = dl.solve_linear(op, rhs)
    assert rep.method == "direct-sparse-lu"
    assert rep.info == 1 and rep.iterations == 1 and rep.converged
    assert np.max(np.abs(rep.field.values - exact.values)) < 1e-12


def test_auxiliary_resistance_before_values():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                    mu_inverse=lambda x, s: 1.0 / (1.0 + 0.1 * x * x))
    ys = (np.arange(8) + 0.5) / 8
    y0, y1 = np.r_[0.0, ys], np.r_[ys, 1.0]
    fresh = dl.AuxiliaryWeight(sol).resistance_y(0.3, ys, y0, y1)
    w = dl.AuxiliaryWeight(sol)
    w.values(0.3, ys)
    assert np.array_equal(fresh, w.resistance_y(0.3, ys, y0, y1))
    assert fresh[0] == math.inf and np.all(np.isfinite(fresh[1:]))


def test_v_between_ladder_points_is_linear():
    """(1 - t) v_k + t v_k+1 at t = 1/4 and 3/4 between ladder points (the
    assembly itself only asks for t = 1/2, where the two weights agree);
    through the origin below the first point, constant above the last."""
    ly, lv = np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 4.0])
    got = dl.AuxiliaryWeight._v_at(ly, lv, np.array([0.25, 0.625, 1.0, 1.375, 2.0]))
    assert np.array_equal(got, [0.5, 1.25, 2.0, 3.5, 4.0])


def test_parity_mismatch_rejected():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    with pytest.raises(ParityError):
        dl.manufactured_problem(lambda x, y: 1.0 + y * y, op)


@pytest.mark.parametrize("model,parity", [("auxiliary", "even"), ("rho", "odd")])
def test_weight_equivalence_constant_mu(model, parity):
    """A weight model whose mu_inverse is 1/c against the same model with
    mu == 1, mu coming from the model alone.  rho with mu = c: the y-faces
    and the x-faces are both exactly c times those of mu == 1.  rho v^2:
    v is 1/c times the mu == 1 one, so the weight is 1/c^2 times and both
    axes are exactly 1/c times (the quotient fields differ by exactly c)."""
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    a, c = 0.5, 2.0
    fam = dl.WeightFamily(a, 0.1)

    def weight(mu_inverse):
        if model == "rho":
            return dl.RhoWeight(fam, mu_inverse)
        return dl.AuxiliaryWeight(dl.CharacteristicSolution(fam, mu_inverse))

    factor = c if model == "rho" else 1.0 / c
    op_c = dl.assemble(g, weight(lambda x, s: 1.0 / c), parity=parity)
    op_1 = dl.assemble(g, weight(lambda x, s: 1.0), parity=parity)
    for axis in (0, 1):
        on = op_1.faces.axis == axis
        assert np.array_equal(op_c.faces.tau[on], factor * op_1.faces.tau[on])
    assert (op_c.matrix != factor * op_1.matrix).nnz == 0


def test_convergence_study_second_order():
    def factory(h):
        g = dl.build_half_grid(1, "half_rectangle", h)
        op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")

        def ue(x, y):
            return np.sin(np.pi * x) * y * (1 + y * y) * 0.25

        def f(x, y):
            # -Delta ue, hand differentiation oracle
            return (np.pi ** 2 * np.sin(np.pi * x) * y * (1 + y * y) * 0.25
                    - np.sin(np.pi * x) * 6.0 * y * 0.25)

        return op, op.rhs(f=f, trace=ue), exact_field(g, ue)

    rows, _ = dl.convergence_study(factory, [1 / 8, 1 / 16, 1 / 32])
    last_order = rows[-1][2]
    assert last_order == pytest.approx(2.0, abs=0.3)


def test_convergence_study_weighted_interior_order():
    """Manufactured u = y|y|^{-a} w, w = cos(pi x/2)(1 + y^2/2), with the
    hand-derived forcing f = y^{1-a} cos(pi x/2)[pi^2/4 (1+y^2/2) - (3-a)]
    (from -div(y^a grad(v w)) = y^a [-y Delta w - (2-a) dw/dy] / y ...)."""
    a = 0.5

    def ue(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * np.cos(np.pi * x / 2) \
            * (1 + 0.5 * y * y)

    def f(x, y):
        return (np.copysign(np.abs(y) ** (1 - a), y) * np.cos(np.pi * x / 2)
                * (np.pi ** 2 / 4.0 * (1 + 0.5 * y * y) - (3.0 - a)))

    def factory(h):
        g = dl.build_half_grid(1, "half_rectangle", h)
        op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")
        return op, op.rhs(f=f, trace=ue), exact_field(g, ue)

    rows, _ = dl.convergence_study(factory, [1 / 16, 1 / 32, 1 / 64],
                                region=lambda x, y: y >= 0.1)
    errs = [r[1] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert rows[-1][2] >= 1.5


def test_convergence_study_exact_flag():
    def factory(h):
        g = dl.build_half_grid(1, "half_rectangle", h)
        op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
        rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
        return op, rhs, exact

    rows, _ = dl.convergence_study(factory, [1 / 8, 1 / 16, 1 / 32])
    assert rows[-1][2] == "exact"


def test_solve_report_fields():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(-1.5, 0.0)), parity="odd")
    rep = dl.solve_linear(op, op.rhs(trace=lambda x, y: y))
    assert rep.converged


def test_field_export_roundtrip_lattice():
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    fld = exact_field(g, lambda x, y: x + y, parity="none")
    lat = fld.lattice()
    assert np.isnan(lat[0, -1])          # corner outside the disk
    vals = lat[np.isfinite(lat)]
    assert len(vals) == g.ncells


def test_interpolation_parity_ghosts():
    # mirrored ghost evaluation below the plane: odd fields pass through 0,
    # even fields are flat across it
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    odd = exact_field(g, lambda x, y: y, parity="odd")
    even = exact_field(g, lambda x, y: 1.0 + y * y, parity="even")
    pts = np.array([[0.25, 1e-6], [0.25, g.h / 4]])
    vo = odd.interpolate(pts)
    ve = even.interpolate(pts)
    assert abs(vo[0]) < 1e-5                       # odd: ~0 on the plane
    assert vo[1] == pytest.approx(g.h / 4, abs=1e-9)
    assert ve[0] == pytest.approx(1.0 + (g.h / 2) ** 2, abs=1e-3)


@pytest.mark.parametrize("n", [1, 2])
def test_mu_at_samples_once_per_grid(n):
    """CharacteristicSolution.mu_at makes one call of mu_inverse on all its
    points, x an array for n = 1 and a tuple of arrays for n = 2, and equals
    1 / mu_inverse called point by point exactly."""
    from degenlab.assembly import _axis_faces

    calls = []

    def mu_inverse(x, y):
        calls.append(x)
        xx = x * x if n == 1 else x[0] * x[0] + 0.5 * x[1] * x[1]
        return 1.0 / (1.0 + 0.2 * xx + 0.3 * y * y / (1.0 + y))

    g = dl.build_half_grid(n, "half_rectangle", 1 / 8)
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse)
    pts = np.vstack([g.centers] + [_axis_faces(g, axis)[2] for axis in range(n + 1)])
    pts = pts[np.random.default_rng(7).permutation(len(pts))]
    want = np.array([1.0 / mu_inverse(p[0] if n == 1 else tuple(p[:n]), p[n]) for p in pts])
    calls.clear()
    x = pts[:, 0] if n == 1 else (pts[:, 0], pts[:, 1])
    got = sol.mu_at(x, pts[:, n])
    assert np.array_equal(got, want)
    assert len(calls) == 1
    x = calls[0]
    assert isinstance(x, tuple) == (n == 2)
    assert all(np.shape(c) == (len(pts),) for c in (x if n == 2 else (x,)))


def test_interpolation_trace_fallback_and_off_grid_refusal():
    """Bilinear corners outside the grid: with a trace sampler they take the
    trace at their cell centre (one call for all of them), so a field and a
    trace of the same linear function interpolate it exactly; without one
    such a point raises, naming the first of them."""
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    fld = exact_field(g, lambda x, y: 1.0 + 2.0 * x + 3.0 * y, parity="none")
    calls = []

    def trace(x, y):
        calls.append(np.shape(y))
        return 1.0 + 2.0 * x + 3.0 * y

    pts = np.array([[0.0, 0.5], [0.95, 0.2], [-0.6, 0.75], [0.2, 1.1], [1.3, 0.05]])
    got = fld.interpolate(pts, trace=trace)
    np.testing.assert_allclose(got, 1.0 + 2.0 * pts[:, 0] + 3.0 * pts[:, 1], rtol=1e-13)
    assert len(calls) == 1 and calls[0][0] > 1
    assert fld.interpolate(pts[:1])[0] == got[0]    # inside the hull: bilinear
    for p in pts[1:]:
        with pytest.raises(ValueError, match=re.escape(f"{tuple(p.tolist())} leaves the grid")):
            fld.interpolate(np.vstack([pts[:1], p]))

