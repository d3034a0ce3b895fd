"""The boundary quotient machinery: w = u / v and its auxiliary equation.

Dividing an odd solution of -div(rho A grad u) = rho f + div(rho F), with
A = mu I, by the characteristic odd solution v produces an even solution
w = u / v of

    -div(rho v^2 A grad w) = v (rho f + div(rho F)) - w v L v,
    L = -div(rho A grad .),

the product rule for u = v w.  Since rho mu d_y v = 1 - a (n = 1),

    L v = -d_x(rho mu d_x v),

so that -w v L v = div(rho v^2 w b) - rho v^2 b.(w grad(v)/v + grad w) with
the drift b = (mu d_x v / v, 0).  When mu does not depend on x, L v = 0 and
the equation is the pure super-degenerate problem with weight
rho v^2 ~ omega.  This module forms the quotient, and :func:`aux_residual`
measures how well w satisfies the equation on one grid: the assembled
quotient operator applied to w, against the load with L v from the
assembled odd operator applied to v, as a weighted residual.  Its decay
under refinement is the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import (
    AuxiliaryWeight,
    DiscreteField,
    RhoWeight,
    _cell_weight_integrals,
    _column_values,
    assemble,
    solve_linear,
)
from .geometry import HalfGrid, Region
from .weights import CharacteristicSolution, v_char_profile


INTERIOR_MARGIN = 0.125     # distance from the outer boundary of the residual's cells
LV_ROUNDING = 1e-12         # L v is 0 where it is below this share of its summed |terms|
V_GUARD = 1e-14             # the least |v| that a quotient divides by


class DivisionGuardError(ZeroDivisionError):
    """Raised if the characteristic denominator is below ``V_GUARD`` at a cell."""


def _v_on_grid(sol: CharacteristicSolution, grid: HalfGrid) -> np.ndarray:
    return _column_values(grid, lambda x, ys: v_char_profile(sol, x, ys))


def ratio_field(u: DiscreteField, sol: CharacteristicSolution) -> DiscreteField:
    """Pointwise quotient u / v at cell centers; parity flips odd -> even."""
    return _quotient(u, _v_on_grid(sol, u.grid))


def _quotient(u: DiscreteField, v: np.ndarray) -> DiscreteField:
    """u / v for v at the cell centers, guarded against a vanishing v."""
    if np.any(np.abs(v) < V_GUARD):
        raise DivisionGuardError(f"characteristic solution below {V_GUARD:g} at a cell center")
    return DiscreteField(u.grid, u.values / v, "even")


@dataclass(frozen=True)
class OddProblem:
    """An odd Dirichlet problem: weight family + mu + data + outer trace.

    ``sol`` holds the weight family and mu (as its ``mu_inverse``).  Its
    samplers take arrays of positions x and ordinates y and broadcast, F
    returning its components along a leading axis.  ``u_exact`` switches the residual check to manufactured
    mode: the quotient is formed from the sampled exact solution instead of
    a discrete solve, so the residual isolates the truncation of the
    quotient equation itself."""

    sol: CharacteristicSolution
    f: Optional[Callable] = None
    F: Optional[Callable] = None
    trace: Optional[Callable] = None
    u_exact: Optional[Callable] = None


def aux_residual(problem: OddProblem, grid: HalfGrid) -> float:
    """Weighted rms residual density of the quotient equation on one grid,
    over the cells at distance >= ``INTERIOR_MARGIN`` from the outer boundary.

    The load v (rho f + div(rho F)) - w v L v (module docstring) is the odd
    operator's load times v, less w v times its matrix applied to v.  Both
    operators carry Dirichlet half-cell terms without a trace on the cells
    with an outer face, so those are left out too.  A solve that did not
    converge raises ``RuntimeError`` naming its residual."""
    wgt = RhoWeight(problem.sol.family, problem.sol.mu_inverse)
    sol = wgt.sol       # the quotient reuses the resistances' segment integrals
    op = assemble(grid, wgt, parity="odd")
    load = op.rhs(f=problem.f, F=problem.F)
    if problem.u_exact is not None:
        u = DiscreteField.sample(grid, problem.u_exact, "odd")
    else:
        rep = solve_linear(op, load + op.rhs(trace=problem.trace))
        if not rep.converged:
            raise RuntimeError(f"solver failed: residual {rep.relative_residual:.2e}")
        u = rep.field
    v = _v_on_grid(sol, grid)
    w = _quotient(u, v).values
    lv = op.matrix @ v
    lv[np.abs(lv) <= LV_ROUNDING * (abs(op.matrix) @ np.abs(v))] = 0.0
    rhs = v * (load - w * lv)
    aux = assemble(grid, AuxiliaryWeight(sol), parity="even")
    meas = _cell_weight_integrals(aux.weight, grid) * grid.h ** grid.n   # int_cell omega dz
    dens = (aux.matrix @ w - rhs) / meas
    inner = Region(1.0 - INTERIOR_MARGIN, 1.0 - INTERIOR_MARGIN).mask(grid)
    fc = aux.faces
    inner[np.maximum(fc.lo, fc.hi)[fc.dirichlet]] = False
    num = float(np.sqrt(np.sum(meas[inner] * dens[inner] ** 2)))
    den = float(np.sqrt(np.sum(meas[inner])))
    scale = float(np.max(np.abs(rhs[inner] / meas[inner]))) or 1.0
    return num / (den * scale)
