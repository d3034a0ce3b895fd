"""The boundary quotient machinery: w = u / v and its auxiliary equation.

Dividing an odd solution of -div(rho A grad u) = rho f + div(rho F) by the
characteristic odd solution v produces an even solution w of

    -div(rho v^2 A grad w) = rho v^2 (fbar - Fbar.grad(v)/v) + div(rho v^2 Fbar)
        + div_x(rho v^2 (b_Btilde + Tbar) w)
        - rho v^2 ((b_Btilde + Tbar).b_id w + (b_Btilde + Tbar).grad_x w),

with fbar = f/v, Fbar = F/v, b_M = M grad_x(v)/v and Tbar = T/(rho v).  When
mu == 1 and T == 0 all the b-terms vanish and the equation reduces to the
pure super-degenerate problem with weight rho v^2 ~ omega.  This module forms
the quotient, builds the term bundle, and verifies the derivation by applying
the assembled auxiliary operator to the quotient and measuring the weighted
residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .assembly import (
    AssembledOperator,
    AuxiliaryWeight,
    DiscreteField,
    OperatorSpec,
    RhoWeight,
    _cell_weight_integrals,
    _column_values,
    assemble,
    solve_linear,
)
from .geometry import HalfGrid, build_half_grid
from .weights import CharacteristicSolution, _sample, v_char, v_char_grad_x, v_char_profile


SOLVER_TOL = 1e-10          # of the odd solve in aux_residual, and the residual floor
INTERIOR_MARGIN = 0.125     # distance from the outer boundary of the residual's cells


class DivisionGuardError(ZeroDivisionError):
    """Raised if the characteristic denominator is below 1e-14 at a cell."""


def _v_on_grid(sol: CharacteristicSolution, grid: HalfGrid) -> np.ndarray:
    return _column_values(grid, lambda x, ys: v_char_profile(sol, x, ys))


def ratio_field(u: DiscreteField, sol: CharacteristicSolution) -> DiscreteField:
    """Pointwise quotient u / v at cell centers; parity flips odd -> even."""
    return _quotient_field(u, _v_on_grid(sol, u.grid))


def _quotient_field(u: DiscreteField, v: np.ndarray) -> DiscreteField:
    """u / v for v at the cell centers, guarded against a vanishing v."""
    if np.any(np.abs(v) < 1e-14):
        raise DivisionGuardError("characteristic solution below 1e-14 at a cell center")
    return DiscreteField(u.grid, u.values / v, "even")


def reconstruct(w: DiscreteField, sol: CharacteristicSolution) -> DiscreteField:
    """Inverse of ratio_field: u = w * v, parity even -> odd."""
    v = _v_on_grid(sol, w.grid)
    return DiscreteField(w.grid, w.values * v, "odd")


@dataclass(frozen=True)
class AuxiliaryRhsBundle:
    """Samplers for every term of the quotient equation's right-hand side.

    All callables take arrays (x, y) of points of the plane (n = 1) and
    broadcast, as the samplers of :class:`OperatorSpec` do, ``F_bar`` with
    its two components along a leading axis.  ``f_bar`` already includes
    the -Fbar.grad(v)/v correction when a field F is present."""

    f_bar: Optional[Callable]
    F_bar: Optional[Callable]
    b_tildeA: Callable
    b_identity: Callable
    T_bar: Callable
    drift: Callable              # total drift vector -(b_tildeA + T_bar), x-part
    zero_order: Callable         # -(b_tildeA + T_bar) . b_identity
    has_drift_terms: bool


def auxiliary_rhs(spec: OperatorSpec, sol: CharacteristicSolution,
                  f: Optional[Callable] = None, F: Optional[Callable] = None
                  ) -> AuxiliaryRhsBundle:
    """Build the term bundle of the quotient equation.

    Raises if T(x, 0) != 0 (the coupling must vanish on the plane, otherwise
    Tbar = T/(rho v) is non-integrable)."""
    worst_t = spec.check_sigma_invariance(n=1)    # plane-variable bundles
    if worst_t > 1e-10:
        raise ValueError(f"T(x,0) must vanish; sampled max {worst_t:.3g}")
    fam = sol.family

    last: list = []       # (x, y, grad_x v, grad_x v / v) of the last points

    def grad_x(x, y):
        """(grad_x v, grad_x v / v) at the points, kept for the last points
        asked: the load, the drift and the zero-order term share them."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if not (last and np.array_equal(last[0], x) and np.array_equal(last[1], y)):
            gx = v_char_grad_x(sol, x, y)
            b_id = np.divide(gx, v_char(sol, x, y), out=np.zeros(np.shape(gx)),
                             where=gx != 0.0)
            last[:] = (x, y, gx, b_id)
        return last[2:]

    def f_bar(x, y):
        v = v_char(sol, x, y)
        out = 0.0
        if f is not None:
            out += _sample(f, x, y, "f") / v
        if F is not None:
            # -Fbar . grad v / v, with grad v = (dv/dx, (1-a) rho^(-a) mu^(-1))
            Fv = _sample(F, x, y, "F", (2,))
            gx = grad_x(x, y)[0]
            mu_inv = 1.0 if sol.mu_inverse is None else _sample(sol.mu_inverse, x, y)
            gy = (1.0 - fam.a) * (fam.eps ** 2 + y * y) ** (-fam.a / 2.0) * mu_inv
            out -= (Fv[0] * gx + Fv[1] * gy) / (v * v)
        return out

    def F_bar(x, y):
        # v = 0 on the plane faces, where the weight rho v^2 of the flux is 0 too
        Fv, v = _sample(F, x, y, "F", (2,)), v_char(sol, x, y)
        return np.divide(Fv, v, out=np.zeros(np.shape(Fv)), where=v != 0.0)

    def b_identity(x, y):
        return grad_x(x, y)[1]

    def b_tildeA(x, y):
        # mu b_tilde (grad_x v / v)
        return sol.mu_at(x, y) * spec.b_tilde_diag_at(x, y, 0) * b_identity(x, y)

    def T_bar(x, y):
        t = spec.t_at(x, y)[0]
        if not np.any(t):
            return np.zeros(np.shape(t))
        r = (fam.eps ** 2 + y * y) ** (fam.a / 2.0)
        return t / (r * v_char(sol, x, y))

    has_drift = sol.mu_inverse is not None or spec.t_field is not None

    def drift(x, y):
        # x-component of the first-order coefficient multiplying grad_x w
        return -(b_tildeA(x, y) + T_bar(x, y))

    def zero_order(x, y):
        return -(b_tildeA(x, y) + T_bar(x, y)) * b_identity(x, y)

    return AuxiliaryRhsBundle(
        f_bar=f_bar if (f is not None or F is not None) else None,
        F_bar=F_bar if F is not None else None,
        b_tildeA=b_tildeA, b_identity=b_identity, T_bar=T_bar,
        drift=drift, zero_order=zero_order, has_drift_terms=has_drift)


@dataclass(frozen=True)
class OddProblem:
    """An odd Dirichlet problem: weight family + tensor + data + outer trace.

    ``sol`` holds the weight family and mu (as its ``mu_inverse``), ``spec``
    the blocks B_tilde and T of the tensor.  Its samplers take arrays as
    those of :class:`OperatorSpec` do, F with its components along a
    leading axis.  ``u_exact`` switches the residual check to manufactured
    mode: the quotient is formed from the sampled exact solution instead of
    a discrete solve, so the residual isolates the truncation of the
    quotient equation itself."""

    sol: CharacteristicSolution
    spec: OperatorSpec
    f: Optional[Callable] = None
    F: Optional[Callable] = None
    trace: Optional[Callable] = None
    u_exact: Optional[Callable] = None
    name: str = "odd-problem"


def assemble_auxiliary(grid: HalfGrid, problem: OddProblem) -> AssembledOperator:
    """Assemble the even quotient operator with weight rho v^2 (drift folded in)."""
    return _assemble_auxiliary(
        grid, problem, auxiliary_rhs(problem.spec, problem.sol, problem.f, problem.F))


def _assemble_auxiliary(grid: HalfGrid, problem: OddProblem,
                        bundle: AuxiliaryRhsBundle) -> AssembledOperator:
    w = AuxiliaryWeight(problem.sol)
    drift = (lambda x, y: (bundle.drift(x, y), 0.0)) if bundle.has_drift_terms else None
    return assemble(grid, w, problem.spec, parity="even", drift=drift)


def verify_ratio_equation(problem: OddProblem, grid: HalfGrid) -> Tuple[float, bool]:
    """Residual of w = u/v in the assembled quotient equation.

    Solves the odd problem (or samples problem.u_exact), forms w, applies the
    auxiliary operator, and measures the weighted mean-square residual of the
    equation over cells at distance >= ``INTERIOR_MARGIN`` from the outer
    boundary (where the first-order Dirichlet imposition pollutes).  The pass
    threshold compares against 10 * (``SOLVER_TOL`` + C h^2), the truncation
    constant C being estimated from one coarser-grid residual.
    """
    res_h = aux_residual(problem, grid)
    h2 = min(0.25, 2.0 * grid.h)
    coarse = build_half_grid(grid.n, grid.shape, h2)
    res_2h = aux_residual(problem, coarse)
    c_trunc = res_2h / (h2 * h2)
    passed = res_h <= 10.0 * (SOLVER_TOL + c_trunc * grid.h ** 2)
    return res_h, bool(passed)


def aux_residual(problem: OddProblem, grid: HalfGrid) -> float:
    """Weighted rms residual density of the quotient equation on one grid,
    over the cells at distance >= ``INTERIOR_MARGIN`` from the outer boundary."""
    sol = problem.sol
    if problem.u_exact is not None:
        u = DiscreteField.sample(grid, problem.u_exact, "odd")
    else:
        wgt = RhoWeight(sol.family, sol.mu_inverse, sol.quadrature_tol)
        sol = wgt.sol       # the quotient reuses the resistances' segment integrals
        op = assemble(grid, wgt, problem.spec, parity="odd")
        rhs = op.rhs(f=problem.f, F=problem.F, trace=problem.trace)
        u = solve_linear(op, rhs, tol=SOLVER_TOL).field
    w = ratio_field(u, sol)
    bundle = auxiliary_rhs(problem.spec, problem.sol, problem.f, problem.F)
    aux = _assemble_auxiliary(grid, problem, bundle)    # drift and zero order share b_identity
    g = grid
    voln = g.h ** (g.n + 1)
    rhs_vec = aux.rhs(f=bundle.f_bar, F=bundle.F_bar,
                      trace=lambda x, y: _w_trace(problem, x, y))
    if bundle.has_drift_terms:
        wc = _column_values(g, aux.weight.values)
        zo = bundle.zero_order(g.centers[:, 0], g.centers[:, 1])
        rhs_vec += voln * wc * zo * w.values
        # div_x(rho v^2 (b+Tbar) w) contribution, flux form on x-faces
        fc = aux.faces
        coeff = np.zeros(len(fc.axis))
        xf = fc.axis < g.n
        xm, ym = fc.mid[xf, 0], fc.mid[xf, 1]
        coeff[xf] = bundle.b_tildeA(xm, ym) + bundle.T_bar(xm, ym)
        wl = np.where(fc.lo >= 0, w.values[fc.lo], 0.0)
        wh = np.where(fc.hi >= 0, w.values[fc.hi], 0.0)
        wmid = 0.5 * (wl + wh)
        wmid = np.where((fc.lo < 0) | (fc.hi < 0), wmid * 2.0, wmid)
        fc.add_flux(rhs_vec, g.h ** g.n * fc.weight * coeff * wmid)
    resid = aux.matrix @ w.values - rhs_vec
    meas = _cell_weight_integrals(aux.weight, g) * g.h ** g.n   # int_cell omega dz
    dens = resid / meas
    inner = _interior_mask(g, INTERIOR_MARGIN)
    num = float(np.sqrt(np.sum(meas[inner] * dens[inner] ** 2)))
    den = float(np.sqrt(np.sum(meas[inner])))
    scale = float(np.max(np.abs(rhs_vec[inner] / meas[inner]))) or 1.0
    return num / (den * scale)


def _interior_mask(g: HalfGrid, margin: float) -> np.ndarray:
    c = g.centers
    ok = np.ones(g.ncells, dtype=bool)
    for d in range(g.n):
        ok &= np.abs(c[:, d]) <= 1.0 - margin
    ok &= c[:, g.n] <= 1.0 - margin
    return ok


def _w_trace(problem: OddProblem, x, y):
    g = problem.trace if problem.trace is not None else problem.u_exact
    if g is None:
        return 0.0
    return _sample(g, x, y, "trace") / v_char(problem.sol, x, y)

