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
    _split,
    assemble,
    solve_linear,
)
from .geometry import HalfGrid, build_half_grid
from .weights import CharacteristicSolution, v_char, v_char_grad_x, v_char_profile


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

    All callables take (x, y).  ``f_bar`` already includes the
    -Fbar.grad(v)/v correction when a field F is present."""

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
    n = 1   # plane-variable bundles; the vector case reuses the same formulas
    worst_t = spec.check_sigma_invariance(n=n)
    if worst_t > 1e-10:
        raise ValueError(f"T(x,0) must vanish; sampled max {worst_t:.3g}")
    fam = sol.family

    def vv(x, y):
        return v_char(sol, x, y)

    def f_bar(x, y):
        out = 0.0
        if f is not None:
            out += f(x, y) / vv(x, y)
        if F is not None:
            # -Fbar . grad v / v, with grad v = (dv/dx, (1-a) rho^(-a) mu^(-1))
            Fv = np.atleast_1d(np.asarray(F(x, y), dtype=float))
            v = vv(x, y)
            gx = v_char_grad_x(sol, x, y)
            mu_inv = 1.0 if sol.mu_inverse is None else sol.mu_inverse(x, y)
            gy = (1.0 - fam.a) * (fam.eps ** 2 + y * y) ** (-fam.a / 2.0) * mu_inv
            out -= (Fv[0] * gx + Fv[1] * gy) / (v * v)
        return out

    def F_bar(x, y):
        Fv = np.atleast_1d(np.asarray(F(x, y), dtype=float))
        return Fv / vv(x, y)

    b_ids: dict = {}        # grad_x v / v per point, shared by drift and zero_order

    def b_identity(x, y):
        b_id = b_ids.get((x, y))
        if b_id is None:
            gx = v_char_grad_x(sol, x, y)
            b_id = b_ids[(x, y)] = 0.0 if gx == 0.0 else gx / vv(x, y)
        return b_id

    def b_tildeA(x, y):
        # mu b_tilde (grad_x v / v)
        b_id = b_identity(x, y)
        if b_id == 0.0:
            return 0.0
        bt = 1.0 if spec.b_tilde is None else float(spec.b_tilde(x, y))
        return spec.mu_val(x, y) * bt * b_id

    def T_bar(x, y):
        t = spec.t_val(x, y, n)
        if not np.any(t):
            return 0.0
        r = (fam.eps ** 2 + y * y) ** (fam.a / 2.0)
        return float(t[0]) / (r * vv(x, y))

    has_drift = sol.mu_inverse is not None or spec.t_field is not None

    def drift(x, y):
        # x-component of the first-order coefficient multiplying grad_x w
        return -(b_tildeA(x, y) + T_bar(x, y))

    def zero_order(x, y):
        s = b_tildeA(x, y) + T_bar(x, y)
        return -s * b_identity(x, y) if s else 0.0

    return AuxiliaryRhsBundle(
        f_bar=f_bar if (f is not None or F is not None) else None,
        F_bar=F_bar if F is not None else None,
        b_tildeA=b_tildeA, b_identity=b_identity, T_bar=T_bar,
        drift=drift, zero_order=zero_order, has_drift_terms=has_drift)


@dataclass(frozen=True)
class OddProblem:
    """An odd Dirichlet problem: weight family + tensor + data + outer trace.

    ``u_exact`` (a sampler) switches the residual check to manufactured mode:
    the quotient is formed from the sampled exact solution instead of a
    discrete solve, so the residual isolates the truncation of the quotient
    equation itself."""

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
    drift = None
    if bundle.has_drift_terms:
        def drift(x, y):
            return np.array([bundle.drift(x, y), 0.0])
    return assemble(grid, w, problem.spec, parity="even", drift=drift)


def verify_ratio_equation(problem: OddProblem, grid: HalfGrid, tol: float = 1e-10,
                          interior_margin: float = 0.125) -> Tuple[float, bool]:
    """Residual of w = u/v in the assembled quotient equation.

    Solves the odd problem (or samples problem.u_exact), forms w, applies the
    auxiliary operator, and measures the weighted mean-square residual of the
    equation over cells at distance >= interior_margin from the outer
    boundary (where the first-order Dirichlet imposition pollutes).  The pass
    threshold compares against 10 * (tol + C h^2), the truncation constant C
    being estimated from one coarser-grid residual.
    """
    res_h = aux_residual(problem, grid, tol, interior_margin)
    h2 = min(0.25, 2.0 * grid.h)
    coarse = build_half_grid(grid.n, grid.shape, h2)
    res_2h = aux_residual(problem, coarse, tol, interior_margin)
    c_trunc = res_2h / (h2 * h2)
    passed = res_h <= 10.0 * (tol + c_trunc * grid.h ** 2)
    return res_h, bool(passed)


def aux_residual(problem: OddProblem, grid: HalfGrid, tol: float = 1e-10,
                 margin: float = 0.125) -> float:
    """Weighted rms residual density of the quotient equation on one grid."""
    sol = problem.sol
    if problem.u_exact is not None:
        u = DiscreteField.sample(grid, problem.u_exact, "odd")
    else:
        wgt = RhoWeight(sol.family, sol.mu_inverse, sol.quadrature_tol)
        sol = wgt.sol       # the quotient reuses the resistances' segment integrals
        op = assemble(grid, wgt, problem.spec, parity="odd")
        rhs = op.rhs(f=problem.f, F=problem.F, trace=problem.trace)
        u = solve_linear(op, rhs, tol=tol).field
    w = ratio_field(u, sol)
    bundle = auxiliary_rhs(problem.spec, problem.sol, problem.f, problem.F)
    aux = _assemble_auxiliary(grid, problem, bundle)    # drift and zero order share b_ids
    g = grid
    voln = g.h ** (g.n + 1)
    rhs_vec = aux.rhs(f=bundle.f_bar, F=bundle.F_bar,
                      trace=lambda x, y: _w_trace(problem, x, y))
    if bundle.has_drift_terms:
        wc = _column_values(g, aux.weight.values)
        zo = np.array([bundle.zero_order(*_split(p, g.n)) for p in g.centers])
        rhs_vec += voln * wc * zo * w.values
        # div_x(rho v^2 (b+Tbar) w) contribution, flux form on x-faces
        fc = aux.faces
        coeff = np.zeros(len(fc.axis))
        xf = fc.axis < g.n
        coeff[xf] = [bundle.b_tildeA(*_split(m, g.n)) + bundle.T_bar(*_split(m, g.n))
                     for m in fc.mid[xf]]
        wl = np.where(fc.lo >= 0, w.values[fc.lo], 0.0)
        wh = np.where(fc.hi >= 0, w.values[fc.hi], 0.0)
        wmid = 0.5 * (wl + wh)
        wmid = np.where((fc.lo < 0) | (fc.hi < 0), wmid * 2.0, wmid)
        fc.add_flux(rhs_vec, g.h ** g.n * fc.weight * coeff * wmid)
    resid = aux.matrix @ w.values - rhs_vec
    meas = _cell_weight_integrals(aux.weight, g) * g.h ** g.n   # int_cell omega dz
    dens = resid / meas
    inner = _interior_mask(g, margin)
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
    return g(x, y) / v_char(problem.sol, x, y)

