"""Flux-form assembly, solves, manufactured solutions, convergence orders."""

import itertools
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spsolve

import degenlab as dl
from degenlab import assembly
from degenlab.assembly import ParityError, RangeError


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


_quadratic_mu_inverse = dl.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 0.1 * x * x))


SEPARABLE = {
    "mu1": lambda: dl.RhoWeight(dl.WeightFamily(0.5, 0.0)),
    "quadratic-mu": lambda: dl.RhoWeight(dl.WeightFamily(0.5, 0.0), _quadratic_mu_inverse),
    "eps0.01": lambda: dl.RhoWeight(dl.WeightFamily(0.5, 0.01)),
    "singular": lambda: dl.RhoWeight(dl.WeightFamily(-1.5, 0.0)),
    "auxiliary": lambda: dl.AuxiliaryWeight(dl.CharacteristicSolution(
        dl.WeightFamily(0.5, 0.1), _quadratic_mu_inverse)),
}


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("weight", SEPARABLE)
def test_separable_operators_converge_in_two_steps(weight, parity):
    # on the full rectangle the preconditioner is the separable operator's own solve
    g = dl.build_half_grid(1, "half_rectangle", 1 / 64)
    op = dl.assemble(g, SEPARABLE[weight](), parity=parity)
    rhs = op.rhs(f=lambda x, y: np.cos(x) * (1.0 + y), trace=lambda x, y: 1.0 + x + y * y)
    rep = dl.solve_linear(op, rhs)
    assert rep.method == "cg-preconditioned"
    assert rep.iterations <= 2 and rep.info == 0 and rep.converged
    assert rep.relative_residual <= 1e-14
    u = spsolve(op.matrix.tocsc(), rhs)
    assert np.max(np.abs(rep.field.values - u)) <= 1e-11 * np.max(np.abs(u))


class _TiltedRho(dl.RhoWeight):
    """rho with x-face conductivities times 1 + 3 (x^2 + y^2), which is no
    product m(x) n(y): the x-face lattice has rank > 1 (a product mu keeps
    every face lattice rank one)."""

    def x_conductivities(self, x, ys):
        return self.values(x, ys) * (1.0 + 3.0 * (np.asarray(x)[..., None] ** 2 + ys * ys))


def test_non_separable_operator_takes_more_steps():
    # a face lattice of rank > 1: the separable fit only preconditions
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    op = dl.assemble(g, _TiltedRho(dl.WeightFamily(0.5, 0.0)), parity="odd")
    rhs = op.rhs(f=lambda x, y: np.cos(x) * (1.0 + y), trace=lambda x, y: 1.0 + x + y * y)
    rep = dl.solve_linear(op, rhs)
    assert rep.iterations > 2 and rep.info == 0 and rep.converged
    u = np.linalg.solve(op.matrix.toarray(), rhs)
    assert np.max(np.abs(rep.field.values - u)) <= 1e-8 * np.max(np.abs(u))


def test_iteration_cap_is_reported_and_aborts_a_sweep(monkeypatch):
    # one CG step cannot converge: the report says so, and a sweep stops on it
    monkeypatch.setattr(dl.assembly, "ITERATION_CAP", 1)
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    rhs, _ = dl.manufactured_problem(lambda x, y: y, op)
    rep = dl.solve_linear(op, rhs)
    assert rep.iterations == 1 and rep.info != 0 and not rep.converged
    fam = dl.ProblemFamily(a=0.5, trace_factor=lambda x, y: 1.0 + x,
                           mu_inverse=(lambda x: 1.0 + 3.0 * x * x, lambda y: 1.0 + 3.0 * y * y))
    with pytest.raises(dl.SweepAbort, match="solver failed at eps=1"):
        dl.holder.solve_family(fam, [1.0, 0.0], grid_h=1 / 16)


def _scipy_cg(op, rhs):
    """The oracle of ``assembly._cg``: scipy's cg with the same preconditioner,
    tolerance and cap.  Returns (u, info, steps)."""
    A, g = op.matrix, op.grid
    if g.n == 1 and g.shape == "half_rectangle":
        M = spla.LinearOperator(A.shape, matvec=assembly._separable_solve(op))
    else:
        M = sp.diags(1.0 / A.diagonal())
    steps = []
    u, info = spla.cg(A, rhs, rtol=assembly.SOLVER_TOL * 1e-5, atol=0.0,
                      maxiter=assembly.ITERATION_CAP, M=M, callback=lambda _: steps.append(1))
    return u, info, len(steps)


ORACLE_CASES = {
    **{f"{w}-{parity}": (w, parity, 1, "half_rectangle", 1 / 64)
       for w in SEPARABLE for parity in ("odd", "even")},
    "half-disk-mu1": ("mu1", "odd", 1, "half_disk", 1 / 16),
    "half-disk-quadratic-mu": ("quadratic-mu", "even", 1, "half_disk", 1 / 16),
    "n2-mu1": ("mu1", "odd", 2, "half_rectangle", 1 / 8),
    "n2-eps0.01": ("eps0.01", "even", 2, "half_rectangle", 1 / 8),
}


def _first(x):
    return x[0] if isinstance(x, tuple) else x


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cg_follows_scipy_step_for_step(case):
    """The lab's CG loop takes scipy's steps: the same count (2 with the
    separable preconditioner on the n = 1 half rectangle, about a hundred
    with the diagonal one on the half disk and on n = 2) and the same field
    up to the order of its sums."""
    weight, parity, n, shape, h = ORACLE_CASES[case]
    op = dl.assemble(dl.build_half_grid(n, shape, h), SEPARABLE[weight](), parity=parity)
    rhs = op.rhs(f=lambda x, y: np.cos(_first(x)) * (1.0 + y),
                 trace=lambda x, y: 1.0 + _first(x) + y * y)
    u, info, steps = _scipy_cg(op, rhs)
    rep = dl.solve_linear(op, rhs)
    assert (rep.iterations, rep.info) == (steps, info) and info == 0 and rep.converged
    assert steps == 2 if (n, shape) == (1, "half_rectangle") else steps > 50
    assert np.max(np.abs(rep.field.values - u)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("n,shape", [(1, "half_rectangle"), (1, "half_disk"),
                                     (2, "half_rectangle")],
                         ids=["half_rectangle", "half_disk", "n2"])
def test_zero_rhs_is_the_zero_field_in_zero_steps(n, shape):
    op = dl.assemble(dl.build_half_grid(n, shape, 1 / 8),
                     dl.RhoWeight(dl.WeightFamily(0.5)))
    rep = dl.solve_linear(op, np.zeros(op.grid.ncells))
    assert not rep.field.values.any()
    assert (rep.iterations, rep.info, rep.relative_residual, rep.converged) == (0, 0, 0.0, True)


def test_cg_overflow_raises_range_error():
    # ||b|| overflows: scipy's loop runs to the cap on inf and nan, the lab's stops at once
    op = dl.assemble(dl.build_half_grid(1, "half_disk", 1 / 8), dl.RhoWeight(dl.WeightFamily(0.5)))
    with pytest.raises(RangeError, match="CG overflows at step 0"):
        dl.solve_linear(op, np.full(op.grid.ncells, 1e200))


def test_auxiliary_resistance_before_values():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), _quadratic_mu_inverse)
    ys = (np.arange(8) + 0.5) / 8
    y0, y1 = np.r_[0.0, ys], np.r_[ys, 1.0]
    fresh = dl.AuxiliaryWeight(sol).resistance_y(0.3, ys, y0, y1)
    w = dl.AuxiliaryWeight(sol)
    w.values(0.3, ys)
    assert np.array_equal(fresh, w.resistance_y(0.3, ys, y0, y1))
    assert fresh[0] == math.inf and np.all(np.isfinite(fresh[1:]))


def test_parity_mismatch_rejected():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
    with pytest.raises(ParityError):
        dl.manufactured_problem(lambda x, y: 1.0 + y * y, op)


@pytest.mark.parametrize("model,parity", [("auxiliary", "even"), ("rho", "odd")])
def test_weight_equivalence_constant_mu(model, parity):
    """A weight model whose m^(-1) is 1/c against the same model with
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
    op_c = dl.assemble(g, weight(dl.MuInverse(m_inv=lambda x: 1.0 / c)), parity=parity)
    op_1 = dl.assemble(g, weight(dl.MuInverse(m_inv=lambda x: 1.0)), parity=parity)
    for axis in (0, 1):
        on = op_1.faces.axis == axis
        assert np.array_equal(op_c.faces.tau[on], factor * op_1.faces.tau[on])
    assert (op_c.matrix != factor * op_1.matrix).nnz == 0


MU_ONE_GRIDS = {"n1-rect": (1, "half_rectangle", 1 / 8), "n1-disk": (1, "half_disk", 1 / 8),
                "n2-rect": (2, "half_rectangle", 1 / 4)}


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("model", ["rho", "auxiliary"])
@pytest.mark.parametrize("grid", MU_ONE_GRIDS)
def test_mu_one_spelled_none_or_as_a_pair_is_one_operator(grid, model, parity):
    """mu == 1 spelled None and spelled MuInverse(m_inv=ones) give the same
    operator, right-hand side and v, bit for bit: v has one rule.  (At
    eps = 0 the quotient weight's cell integrals take the exact y^(3-a) form
    for MuInverse(), which a sampler of ones does not reach.)"""
    g = dl.build_half_grid(*MU_ONE_GRIDS[grid])
    fam = dl.WeightFamily(0.5, 0.1)
    pts = np.vstack([g.centers, g.stencil.mid])

    def f(x, y):
        return np.cos(x if g.n == 1 else x[0]) * (1.0 + y)

    def F(x, y):
        return (0.3 * y,) * g.n + (0.2 + y * y,)

    def built(mu_inverse):
        if model == "rho":
            weight = dl.RhoWeight(fam, mu_inverse)
        else:
            weight = dl.AuxiliaryWeight(dl.CharacteristicSolution(fam, mu_inverse))
        op = dl.assemble(g, weight, parity=parity)
        rhs = op.rhs(f=f, F=F, trace=lambda x, y: dl.v_char(weight.sol, x, y))
        return (op.matrix.data, op.matrix.indices, op.matrix.indptr, op.faces.tau,
                op.faces.weight, rhs, dl.v_char(weight.sol, *assembly._xy(pts, g.n)))

    for got, want in zip(built(None), built(dl.MuInverse(m_inv=lambda x: 1.0))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


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
    (from -div(y^a grad(v w)) = y^a [-y Delta w - (2-a) dw/dy] / y ...).
    The error is the largest over the cells with y >= 0.1, clear of the
    plane, as convergence_study would measure it on those cells."""
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

    errs = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        op, rhs, exact = factory(h)
        err = np.abs(dl.solve_linear(op, rhs).field.values - exact.values)
        errs.append(np.max(err[dl.Region(1.0, 1.0, y_min=0.1).mask(op.grid)]))
    assert errs[0] > errs[1] > errs[2]
    assert math.log2(errs[1] / errs[2]) >= 1.5


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
    # on the half rectangle every cell of the lattice is a dof, in lattice order
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    fld = exact_field(g, lambda x, y: x + 10 * y, parity="none")
    lat = fld.lattice()
    assert lat.shape == g.lattice_shape() and np.array_equal(lat.ravel(), fld.values)
    assert lat[0, -1] == (-1.0 + g.h / 2) + 10 * (1.0 - g.h / 2)     # top left corner
    # on the half disk, NaN at the cells outside it
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    lat = exact_field(g, lambda x, y: x + y, parity="none").lattice()
    assert np.isnan(lat[0, -1]) and np.array_equal(lat[g.index >= 0], g.centers.sum(axis=1))


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
    """CharacteristicSolution.mu_at makes one call of each factor of
    mu_inverse on all its points, x an array for n = 1 and a tuple of arrays
    for n = 2, and equals 1 / mu_inverse called point by point exactly."""
    calls = []

    def m_inv(x):
        calls.append(x)
        xx = x * x if n == 1 else x[0] * x[0] + 0.5 * x[1] * x[1]
        return 1.0 / (1.0 + 0.2 * xx)

    def n_inv(y):
        calls.append(y)
        return 1.0 / (1.0 + 0.3 * y * y / (1.0 + y))

    mu_inverse = dl.MuInverse(m_inv, n_inv)
    g = dl.build_half_grid(n, "half_rectangle", 1 / 8)
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse)
    pts = np.vstack([g.centers, g.stencil.mid])      # the cell centres and face midpoints
    pts = pts[np.random.default_rng(7).permutation(len(pts))]
    want = np.array([1.0 / mu_inverse(p[0] if n == 1 else tuple(p[:n]), p[n]) for p in pts])
    calls.clear()
    x = pts[:, 0] if n == 1 else (pts[:, 0], pts[:, 1])
    got = sol.mu_at(x, pts[:, n])
    assert np.array_equal(got, want)
    assert len(calls) == 2 and np.array_equal(calls[1], pts[:, n])
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

