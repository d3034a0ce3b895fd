"""Flux-form finite volumes for -div(w A grad u) = w f + div(w F), A = mu I.

Unknowns are cell averages at cell centers; the discrete operator is built
from face transmissibilities

    tau_f = (face area) / R_f,      R_f = int_segment ds / (w * mu),

so that the bilinear form sum_f tau_f (u_hi - u_lo)(v_hi - v_lo) is symmetric
and positive.  For y-faces the resistance integral R_f is evaluated exactly
through the characteristic antiderivative of the weight family (the odd
comparison solution is literally the resistance function of the operator in
the y-direction); x-faces use the harmonic mean of the adjacent cell weights
with mu at the face midpoint.  This keeps the scheme exact for the model odd
solution in one dimension and uniformly well behaved across the
degenerate/singular range of exponents.

The operator is built with array operations over the cell lattice, by one
code path for n = 1 and n = 2.  The grid's :class:`Stencil`, built once per
grid by index arithmetic on the lattice, holds what depends on the grid
alone: the faces, each cell's faces and the CSR pattern.  An assembly
computes the weights, transmissibilities and diagonal and gathers them into
the matrix.  Weight models are evaluated on all the lattice columns at once
(the contract, and mu, is :class:`WeightModel`'s), so the y-faces of a grid
cost one ``resistance_y`` call.  The faces are kept as arrays
(:class:`Faces`) for right-hand sides.  There is no per-cell Python work:
every user sampler (mu_inverse, the data f, F and the trace, and exact
solutions) takes coordinate arrays and is called once on all the points it
is needed at, through ``weights._sample``.

Boundary handling:
* characteristic plane (y = 0): odd parity imposes u = 0 through the exact
  half-cell resistance; even parity imposes zero weighted flux (no term).
* outer boundary (including the staircase of the half disk): Dirichlet
  data enter through half-cell transmissibilities, first order.

Linear solves: CG (:func:`_cg`, scipy's ``cg`` recursion), preconditioned
on the n = 1 half rectangle by the exact solve of the separable fit of the
face transmissibilities (Lynch, Rice & Thomas, 1964; Concus & Golub, 1973),
which every operator the CLI assembles matches, so CG stops within two
steps; the half disk and n = 2 grids take the diagonal.  Every solve aims
at the relative residual ``SOLVER_TOL``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, lapack

from .geometry import HalfGrid, build_half_grid
from .weights import (
    CharacteristicSolution,
    MuInverse,
    WeightFamily,
    _sample,
    rho,
)

ITERATION_CAP = 100_000
SOLVER_TOL = 1e-10      # relative residual of every linear solve


class ParityError(ValueError):
    """Raised when a sampled exact solution does not respect the stated parity."""


class RangeError(ValueError):
    """Raised when a weight, an operator or a solve leaves the range of double
    precision on a grid: the problem is not representable there."""


# ---------------------------------------------------------------------------
# Weight models
# ---------------------------------------------------------------------------

class WeightModel:
    """Weight sampler evaluated on all the grid columns at once.

    A model owns the coefficient mu of the operator, so one model means one
    operator: ``sol`` is its characteristic solution, whose ``mu_inverse``
    pair m^(-1)(x) n^(-1)(y) sets the y-resistances and v, and whose
    ``mu_at`` gives mu on the x-faces.

    Every method receives the columns' positions ``x`` (an array of shape S,
    a tuple of them for n = 2) and the cell-center ordinates ``ys``, and
    returns one row per column, or one row for all if w does not depend on x:

    * ``values(x, ys)``: w at the cell centers;
    * ``x_conductivities(x, ys)``: the per-cell conductivity of x-faces;
    * ``cell_integral_y(x, ys, y0, y1)``: int_{y0}^{y1} w(x, s) ds for each
      pair of endpoints (near the plane the weight's curvature makes the
      midpoint rule O(1) relatively wrong in the bottom cell);
    * ``resistance_y(x, ys, y0, y1)``: int_{y0}^{y1} ds/(w(s) mu(x, s)) for
      the segments [y0, y1] of the y-faces, arrays of shape (m,) or S + (m,)
      that broadcast; each end is a cell centre, the plane or a face.

    Assembly makes one call of each per grid.
    """

    weight_id = "generic"
    sol: CharacteristicSolution

    def x_conductivities(self, x, ys: np.ndarray) -> np.ndarray:
        """Per-cell conductivity used for x-direction fluxes.

        Default: the midpoint values, exact on the odd characteristic branch
        (w * v is linear in y); the quotient weight overrides with y-averages,
        exact on the even smooth branch."""
        return self.values(x, ys)


class RhoWeight(WeightModel):
    """w = rho(y); exact resistances through the characteristic antiderivative.

    mu is given as the pair ``mu_inverse`` (None: ``MuInverse()``, mu == 1),
    and int ds/(w mu) = int rho^(-a) mu^(-1) ds = m^(-1)(x) (N(y1) - N(y0))
    is the characteristic-solution increment divided by (1-a).  w == 1 is
    ``RhoWeight(WeightFamily(0.0))``."""

    def __init__(self, family: WeightFamily, mu_inverse: Optional[MuInverse] = None):
        self.family = family
        self.sol = CharacteristicSolution(family, mu_inverse)
        self.weight_id = f"rho[a={family.a:g},eps={family.eps:g}]"

    def values(self, x, ys):
        return rho(self.family, np.asarray(ys, dtype=float))

    def resistance_y(self, x, ys, y0, y1):
        """N computed once on the half-spacing ladder of ys, read at each segment
        end (a cell centre, a face or the plane) by its ladder index y / (h/2)."""
        sol = self.sol
        N = np.r_[0.0, sol.integral(_half_ladder(ys), keep=True)]
        i0, i1 = (np.rint(y / ys[0]).astype(np.intp) for y in (y0, y1))
        return np.asarray(sol.m_inv_at(x))[..., None] * (N[i1] - N[i0])

    def cell_integral_y(self, x, ys, y0, y1):
        a, eps = self.family.a, self.family.eps
        ym = 0.5 * (y0 + y1)
        if eps == 0.0:
            if a <= -1.0:              # non-integrable alone; midpoint pairs with vanishing f
                return rho(self.family, ym) * (y1 - y0)
            return (y1 ** (1.0 + a) - y0 ** (1.0 + a)) / (1.0 + a)
        return (y1 - y0) / 6.0 * (rho(self.family, y0) + 4.0 * rho(self.family, ym)
                                  + rho(self.family, y1))


class AuxiliaryWeight(WeightModel):
    """w = rho (v)^2 with v the characteristic odd solution (quotient weight).

    v = (1-a) (m^(-1)(x) N(y)) for every mu, N read through ``sol.integral``
    on the half-spacing ladder of the cell centres, which each method keeps,
    and computed off it.  The resistance of the first half cell [0, h/2] is
    infinite (super-degenerate weight): the natural zero-flux closure.
    """

    def __init__(self, sol: CharacteristicSolution):
        self.sol = sol
        self.weight_id = f"rho_v2[a={sol.family.a:g},eps={sol.family.eps:g}]"

    def _rho_v2(self, x, ys, y) -> np.ndarray:
        """rho v^2 at ordinates y > 0 in each column of x, after keeping the
        half-spacing ladder of the cell centres ys."""
        sol = self.sol
        sol.integral(_half_ladder(ys), keep=True)
        v = (1.0 - sol.family.a) * (np.asarray(sol.m_inv_at(x))[..., None] * sol.integral(y))
        return rho(sol.family, y) * v * v

    def values(self, x, ys):
        return self._rho_v2(x, ys, np.asarray(ys, dtype=float))

    def resistance_y(self, x, ys, y0, y1):
        """Face-midpoint rule R = (y1-y0) / (rho v^2 mu)(face).

        The even quotient problem's smooth branch behaves like c + beta y^2
        at the plane; the face-midpoint flux is exact for that branch, while
        a harmonic or line-resistance rule (exact for the odd problem's
        singular branch) has an O(1) relative flux error at the first face."""
        pos = y0 > 0.0
        ym = np.where(pos, 0.5 * (y0 + y1), ys[0])
        k = self._rho_v2(x, ys, ym) / (np.asarray(self.sol.m_inv_at(x))[..., None]
                                       * self.sol.n_inv_at(ym))
        return np.where(pos, (y1 - y0) / k, math.inf)

    def x_conductivities(self, x, ys):
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        j = np.arange(len(ys))
        return self.cell_integral_y(x, ys, j * h, (j + 1) * h) / h

    def cell_integral_y(self, x, ys, y0, y1):
        fam = self.sol.family
        if self.sol.mu_inverse == MuInverse() and fam.eps == 0.0:
            p = 3.0 - fam.a          # rho * ((1-a) chi)^2 = y^(2-a) exactly
            return (y1 ** p - y0 ** p) / p

        def w_at(y):
            pos = y > 0.0            # super-degenerate: rho v^2 -> 0 at the plane
            return np.where(pos, self._rho_v2(x, ys, np.where(pos, y, ys[0])), 0.0)

        ym = 0.5 * (y0 + y1)
        return (y1 - y0) / 6.0 * (w_at(y0) + 4.0 * w_at(ym) + w_at(y1))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass
class DiscreteField:
    """Values at the cell centers of a HalfGrid, with parity metadata."""

    grid: HalfGrid
    values: np.ndarray
    parity: str = "none"          # 'odd' | 'even' | 'none'

    @classmethod
    def sample(cls, grid: HalfGrid, fn: Callable, parity: str = "none") -> "DiscreteField":
        """fn at the cell centres, in one call on arrays (x, y)."""
        return cls(grid, _sample(fn, *_xy(grid.centers, grid.n), "field").copy(), parity)

    def lattice(self) -> np.ndarray:
        out = np.full(self.grid.lattice_shape(), np.nan)
        out[self.grid.index >= 0] = self.values       # the dofs are in lattice order
        return out

    def interpolate(self, points: np.ndarray, trace: Optional[Callable] = None) -> np.ndarray:
        """Bilinear interpolation (n=1 grids) with parity ghosts below y=h/2.

        Corners outside the grid take the trace at their cell centre, in one
        call; without a trace such a point raises ValueError."""
        if self.grid.n != 1:
            raise NotImplementedError("interpolation implemented for n=1 grids")
        g = self.grid
        lat = self.lattice()
        h = g.h
        # the lattice with the parity ghosts as row j = -1, in a frame of NaN
        ghost = {"odd": -1.0, "even": 1.0}.get(self.parity, np.nan) * lat[:, :1]
        frame = np.pad(np.hstack([ghost, lat]), 1, constant_values=np.nan)
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        fx = (points[:, 0] + 1.0) / h - 0.5
        fy = points[:, 1] / h - 0.5
        i0, j0 = np.floor(fx).astype(int), np.floor(fy).astype(int)
        tx, ty = fx - i0, fy - j0
        i, j = np.broadcast_arrays(i0[:, None, None] + np.array([[0], [1]]),   # point, di, dj
                                   j0[:, None, None] + np.array([[0, 1]]))
        vals = frame[np.clip(i, -1, g.nx) + 1, np.clip(j, -2, g.ny) + 2]
        missing = np.isnan(vals)
        if missing.any():
            if trace is None:
                k = np.flatnonzero(missing.any(axis=(1, 2)))[0]
                raise ValueError(f"the stencil of {tuple(points[k].tolist())} leaves the "
                                 "grid; give a trace for the cells outside it")
            vals[missing] = _sample(trace, -1.0 + (i[missing] + 0.5) * h,
                                    (j[missing] + 0.5) * h, "trace")
        return ((1 - tx) * (1 - ty) * vals[:, 0, 0] + (1 - tx) * ty * vals[:, 0, 1]
                + tx * (1 - ty) * vals[:, 1, 0] + tx * ty * vals[:, 1, 1])


def _half_ladder(ys: np.ndarray) -> np.ndarray:
    """The half-spacing ladder h/2, h, ..., len(ys) h of the cell centres
    ys = (j + 1/2) h of a column: every cell centre and face ordinate."""
    return np.arange(1, 2 * len(ys) + 1) * ys[0]


def _x_of(coords):
    """x as samplers take it: the coordinate, a tuple of them for n = 2."""
    return coords[0] if len(coords) == 1 else tuple(coords)


def _xy(pts: np.ndarray, n: int):
    """The positions x (a tuple for n = 2) and ordinates y of the rows of pts."""
    return _x_of([pts[:, d] for d in range(n)]), pts[:, n]


# ---------------------------------------------------------------------------
# Lattice arrays
# ---------------------------------------------------------------------------

def _column_values(g: HalfGrid, fn: Callable) -> np.ndarray:
    """fn(x, ys) on all the lattice columns in one call, at the cells in dof order."""
    st = g.stencil
    return np.broadcast_to(fn(st.x, st.ys), (g.nx ** g.n, g.ny)).ravel()[st.cells]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Faces:
    """Every face of the grid, as parallel arrays.

    Order: the y-faces column by column from the plane up, then the x-faces
    of each axis line by line.  ``lo``/``hi`` are the dofs below/above
    (left/right) of the face, -1 outside the grid; ``weight`` is the face
    weight of the flux w F.n; ``mid`` the midpoint (x..., y); ``dirichlet``
    marks the outer faces where the trace enters, with transmissibility ``tau``."""

    axis: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    weight: np.ndarray
    mid: np.ndarray
    tau: np.ndarray
    dirichlet: np.ndarray

    def add_flux(self, out: np.ndarray, flux: np.ndarray) -> None:
        """out[lo] += flux, out[hi] -= flux, face after face (outside dofs skipped)."""
        idx = np.column_stack([self.lo, self.hi]).ravel()
        val = np.column_stack([flux, -flux]).ravel()
        keep = idx >= 0
        np.add.at(out, idx[keep], val[keep])


@dataclass
class AssembledOperator:
    matrix: sp.csr_matrix
    grid: HalfGrid
    parity: str
    weight: WeightModel
    faces: Faces = field(repr=False)

    def rhs(self, f: Optional[Callable] = None, F: Optional[Callable] = None,
            trace: Optional[Callable] = None) -> np.ndarray:
        """The load of w f + div(w F) and the trace: f at the cell centres, F (n + 1
        components) at the face midpoints, the trace at the Dirichlet ones."""
        g = self.grid
        fc = self.faces
        out = np.zeros(g.ncells)
        if f is not None:
            fv = _sample(f, *_xy(g.centers, g.n), "f")
            out += g.h ** g.n * _cell_weight_integrals(self.weight, g) * fv
        if F is not None:
            Fv = _sample(F, *_xy(fc.mid, g.n), "F", (g.n + 1,))
            fc.add_flux(out, g.h ** g.n * fc.weight * Fv[fc.axis, np.arange(len(fc.axis))])
        d = fc.dirichlet
        if trace is not None and d.any():
            tv = _sample(trace, *_xy(fc.mid[d], g.n), "trace")
            np.add.at(out, np.maximum(fc.lo, fc.hi)[d], fc.tau[d] * tv)
        return out


def _cell_weight_integrals(weight: WeightModel, g: HalfGrid) -> np.ndarray:
    """Per-cell int_cell w dy, by the weight model's ``cell_integral_y``."""
    j = np.arange(g.ny)
    return _column_values(g, lambda x, ys: weight.cell_integral_y(x, ys, j * g.h, (j + 1) * g.h))


class Stencil:
    """What :func:`assemble` reads from the grid alone, built once per grid
    (:attr:`HalfGrid.stencil`) and shared by every operator on it: the
    lattice columns' ``x`` and cell ordinates ``ys``; the read-only
    :class:`Faces` fields; the y-segment ends ``y0``, ``y1``; the cell
    values of each face weight (``side``, ``inner``, ``inner_hi``, into the
    y-face values followed by the x-face ones); ``slots``, each cell's lower
    and upper face per axis, y first; the CSR pattern, ``src`` naming each
    entry's face, or its cell past the faces; and ``cells``, ``yfaces``, the
    grid's cells and y-faces among the lattice's.  Dofs increase in lattice
    order, so a row's slots are in column order.

    The faces normal to lattice axis d (axis n is y; length m, dof stride s)
    come in lines, one per cell with i_d = 0 (dof ``first``), with faces at
    positions p = 0..m between the cells first + (p-1) s and first + p s.  A
    half-disk grid keeps its lattice's faces to its cells (:meth:`_keep`)."""

    def __init__(self, grid: HalfGrid):
        g = grid if grid.shape == "half_rectangle" else build_half_grid(grid.n, "half_rectangle",
                                                                         grid.h)
        n, h, ny, ncells = g.n, g.h, g.ny, g.ncells
        shape = g.lattice_shape()
        self.x = _x_of([g.centers[::ny, d] for d in range(n)])
        self.ys = (np.arange(ny) + 0.5) * h
        self.y0, self.y1 = np.r_[0.0, self.ys], np.r_[self.ys, ny * h]

        order = (n, *range(n))                                 # y-faces first
        total = sum(ncells // shape[d] * (shape[d] + 1) for d in order)
        self.axis, self.lo, self.hi = np.empty((3, total), dtype=np.int64)
        self.mid, self.dirichlet = np.empty((total, n + 1)), np.zeros(total, dtype=bool)
        self.slots = np.empty((2 * n + 2, ncells), dtype=np.int64)
        start = 0
        for i, d in enumerate(order):
            m, s = shape[d], math.prod(shape[d + 1:])
            line, pos = np.arange(ncells // m), np.arange(m + 1)
            first = line // s * (m * s) + line % s
            cells = first[:, None] + pos[:-1] * s
            block = slice(start, start + len(line) * (m + 1))
            axis, lo, hi = (a[block].reshape(-1, m + 1) for a in (self.axis, self.lo, self.hi))
            axis[...], lo[:, 0], lo[:, 1:], hi[:, :-1], hi[:, -1] = d, -1, cells, cells, -1
            mid = self.mid[block].reshape(-1, m + 1, n + 1).transpose(2, 0, 1)
            mid[...] = g.centers[first].T[..., None]
            mid[d] = (-1.0 if d < n else 0.0) + pos * h
            self.dirichlet[block].reshape(-1, m + 1)[:, [0, m] if d < n else [m]] = True
            # a cell is the upper side of the face at p = i_d and the lower side of p + 1
            np.add(start + (m + 1) * line.reshape(shape[:d] + (1,) + shape[d + 1:]),
                   pos[:-1].reshape((m,) + (1,) * (n - d)), out=self.slots[2 * i].reshape(shape))
            self.slots[2 * i + 1] = self.slots[2 * i] + 1
            start = block.stop
        self.cells = self.yfaces = slice(None)
        if grid is not g:
            self._keep(grid)

        lo, hi, dofs = self.lo, self.hi, np.arange(grid.ncells)
        off = np.where(self.axis == n, 0, grid.ncells)
        self.side = np.where(lo >= 0, lo, hi) + off
        self.inner = np.flatnonzero((lo >= 0) & (hi >= 0))
        self.inner_hi = hi[self.inner] + off[self.inner]
        # a row's entries in column order: the lower neighbour along axis 0, ..., n, the
        # cell, then the upper neighbour along axis n, ..., 0; none across the boundary
        lower, upper = [*range(2, 2 * n + 2, 2), 0], [1, *range(2 * n + 1, 2, -2)]
        nb = np.vstack([lo[self.slots[lower]], dofs, hi[self.slots[upper]]]).T
        there = nb >= 0
        self.src = np.vstack([self.slots[lower], len(lo) + dofs, self.slots[upper]]).T[there]
        self.indices = nb[there].astype(np.int32)
        self.indptr = np.r_[0, np.cumsum(there.sum(axis=1))].astype(np.int32)
        for name in ("axis", "lo", "hi", "mid", "dirichlet", "indices", "indptr"):
            getattr(self, name).setflags(write=False)

    def _keep(self, g: HalfGrid) -> None:
        """Keep the lattice's faces and slots to the cells of the staircase
        grid g.  A face between a kept cell and a dropped one is a Dirichlet
        face of the kept one, whose y-segment ends at the face (so ``y1``
        gets a row per column); a face with no kept side goes."""
        dof = np.r_[g.index.ravel(), -1]        # dof[-1] = -1: outside stays outside
        lo, hi = dof[self.lo], dof[self.hi]
        keep = (lo >= 0) | (hi >= 0)
        self.cells = np.flatnonzero(dof[:-1] >= 0)
        self.yfaces = np.flatnonzero(keep & (self.axis == g.n))
        top = np.count_nonzero(g.index >= 0, axis=-1).reshape(-1, 1)     # each column's cells
        self.y1 = np.where(np.arange(g.ny + 1) == top, top * g.h, self.y1)
        # the plane's faces, with no cell below and not Dirichlet on the lattice, stay so
        dirichlet = ((lo < 0) | (hi < 0)) & (self.dirichlet | (self.lo >= 0))
        self.lo, self.hi, self.axis, self.mid, self.dirichlet = (
            a[keep] for a in (lo, hi, self.axis, self.mid, dirichlet))
        self.slots = (np.cumsum(keep) - 1)[self.slots[:, self.cells]]


def assemble(grid: HalfGrid, weight: WeightModel, parity: str = "odd") -> AssembledOperator:
    """Assemble the flux-form operator, symmetric and closed by Dirichlet
    half-cells on the outer boundary; see the module docstring for the
    scheme.  The grid's :class:`Stencil` gives everything but the values;
    the y-resistances come from one ``resistance_y`` call."""
    if parity not in ("odd", "even"):
        raise ValueError("assembly parity must be 'odd' or 'even'")
    g, st = grid, grid.stencil
    area = g.h ** g.n
    wcell = _column_values(g, weight.values)
    bad = np.flatnonzero(~(np.isfinite(wcell) & (wcell > 0)))
    if len(bad):
        raise RangeError(f"weight {weight.weight_id!r} non-finite or non-positive at the "
                         f"cell centre {tuple(g.centers[bad[0]].tolist())}")
    cw = np.concatenate([wcell, _column_values(g, weight.x_conductivities)])
    wf = cw[st.side]
    wl, wh = wf[st.inner], cw[st.inner_hi]
    wf[st.inner] = 2.0 * wl * wh / (wl + wh)      # harmonic mean between two cells

    R = np.broadcast_to(weight.resistance_y(st.x, st.ys, st.y0, st.y1),
                        (g.nx ** g.n, g.ny + 1)).ravel()[st.yfaces]
    k = len(R)
    plane = (st.lo[:k] < 0) & ~st.dirichlet[:k]
    # a plane face closes the odd problem (u = 0) through a finite half-cell resistance
    use = ~plane if parity == "even" else ~plane | (np.isfinite(R) & (R > 0))
    tau = np.zeros(len(wf))
    tau[:k][use] = area / R[use]
    tau[k:] = (area * wf[k:] * weight.sol.mu_at(*_xy(st.mid[k:], g.n))
               / np.where(st.dirichlet[k:], g.h / 2.0, g.h))
    diag = sum(tau[st.slots])         # per axis, y first, lower face before upper
    bad = np.flatnonzero(~np.isfinite(diag))
    if len(bad):
        raise RangeError(f"operator of weight {weight.weight_id!r} non-finite at the cell "
                         f"centre {tuple(g.centers[bad[0]].tolist())}")
    M = sp.csr_matrix((np.concatenate([-tau, diag])[st.src], st.indices, st.indptr),
                      shape=(g.ncells, g.ncells))
    faces = Faces(st.axis, st.lo, st.hi, wf, st.mid, tau, st.dirichlet)
    return AssembledOperator(matrix=M, grid=g, parity=parity, weight=weight, faces=faces)


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    field: DiscreteField
    relative_residual: float
    iterations: int
    method: str                   # always "cg-preconditioned"
    converged: bool               # info == 0 and relative_residual <= tolerance
    tolerance: float
    info: int                     # 0, or ITERATION_CAP when CG stopped there


def _separable_solve(op: AssembledOperator) -> Callable[[np.ndarray], np.ndarray]:
    """The exact solve of the separable fit of an n = 1 half-rectangle operator.

    The y-face lattice (nx, ny + 1) of ``op.faces.tau`` is fitted as m (x) d
    and the x-face lattice (ny, nx + 1) as c (x) a, each as u v^T with v its
    column sums (least squares, exact at rank one).  With D_x and K_y the
    face forms of a and d, D_x Q = diag(m) Q diag(lam), Q^T diag(m) Q = I,
    splits D_x (x) diag(c) + diag(m) (x) K_y into the blocks
    lam_i diag(c) + K_y, factored by one dpttrf of their stacked tridiagonals."""
    g, tau = op.grid, op.faces.tau
    k = g.nx * (g.ny + 1)
    fits = []
    for T in (tau[:k].reshape(g.nx, g.ny + 1), tau[k:].reshape(g.ny, g.nx + 1)):
        v = T.sum(axis=0)
        e = 2.0 ** -np.frexp(np.max(v))[1]      # v e in [1/2, 1): exact, and no square underflows
        fits.append((T @ (v * e) / ((v * e) @ (v * e)) * e, v[:-1] + v[1:], -v[1:-1]))
    (m, dy, ey), (c, dx, ex) = fits
    s = 1.0 / np.sqrt(m)
    if not np.all(np.isfinite(s)):
        raise RangeError("the separable fit of the face transmissibilities overflows")
    lam, V = eigh_tridiagonal(s * s * dx, s[:-1] * s[1:] * ex)
    Q = s[:, None] * V
    # each block's off-diagonal and a zero coupling to the next block
    df, ef, _ = lapack.dpttrf((lam[:, None] * c + dy).ravel(), np.tile(np.r_[ey, 0.0], g.nx)[:-1])

    def solve(r: np.ndarray) -> np.ndarray:
        w = lapack.dpttrs(df, ef, (Q.T @ r.reshape(g.nx, g.ny)).ravel())[0]
        return (Q @ w.reshape(g.nx, g.ny)).ravel()

    return solve


def _cg(A: sp.csr_matrix, b: np.ndarray, precondition: Callable[[np.ndarray], np.ndarray]
        ) -> Tuple[np.ndarray, int, int]:
    """(u, info, steps) of preconditioned CG on A u = b from u = 0.

    The recursion of ``scipy.sparse.linalg.cg`` step for step: it stops with
    info 0 when the recursion's ||r|| falls below ``SOLVER_TOL * 1e-5 *
    ||b||`` (at once for b = 0), or with info ``ITERATION_CAP`` after that
    many steps.  An inner product that overflows raises RangeError."""
    u, r = np.zeros(len(b)), np.array(b, dtype=float)
    bnorm = math.sqrt(r @ r)
    if bnorm == 0.0:
        return u, 0, 0
    tol = SOLVER_TOL * 1e-5 * bnorm
    for k in range(ITERATION_CAP):
        if math.sqrt(r @ r) < tol:
            return u, 0, k
        z = precondition(r)
        rz = float(r @ z)
        if not math.isfinite(rz):
            raise RangeError(f"CG overflows at step {k}")
        if k:
            p *= rz / rz_prev
            p += z
        else:
            p = z
        q = A @ p
        alpha = rz / float(p @ q)
        u += alpha * p
        r -= alpha * q
        rz_prev = rz
    return u, ITERATION_CAP, ITERATION_CAP


def solve_linear(op: AssembledOperator, rhs: np.ndarray) -> SolveReport:
    """Solve op u = rhs by :func:`_cg`, preconditioned by :func:`_separable_solve`
    on the n = 1 half rectangle and by the diagonal on other grids."""
    A, g = op.matrix, op.grid
    if g.n == 1 and g.shape == "half_rectangle":
        precondition = _separable_solve(op)
    else:
        precondition = functools.partial(np.multiply, 1.0 / A.diagonal())
    u, info, steps = _cg(A, rhs, precondition)
    res = float(np.linalg.norm(A @ u - rhs) / (np.linalg.norm(rhs) or 1.0))
    return SolveReport(field=DiscreteField(g, u, op.parity), relative_residual=res,
                       iterations=steps, method="cg-preconditioned", info=info,
                       converged=info == 0 and res <= SOLVER_TOL, tolerance=SOLVER_TOL)


def manufactured_problem(u_exact: Callable, op: AssembledOperator
                         ) -> Tuple[np.ndarray, DiscreteField]:
    """Right-hand side A u_exact and exact field for the method of
    manufactured solutions: the solver must reproduce u_exact to solver
    tolerance.  (For the scheme's order, solve ``op.rhs(f=..., F=...,
    trace=u_exact)`` against :meth:`DiscreteField.sample` of u_exact.)"""
    _check_parity(u_exact, op.parity, op.grid.n)
    exact = DiscreteField.sample(op.grid, u_exact, op.parity)
    return op.matrix @ exact.values, exact


def _check_parity(u_exact, parity, n):
    """u_exact(x, -y) against -u_exact(x, y) (odd) or u_exact(x, y) (even) at
    three probes, all six points in one call, to 1e-9 relative."""
    if parity not in ("odd", "even"):
        return
    xx, yy = np.tile([0.3, -0.5, 0.1], 2), np.array([0.4, 0.7, 0.2])
    up, um = np.split(_sample(u_exact, xx if n == 1 else (xx, -xx / 2), np.r_[yy, -yy],
                              "u_exact"), 2)
    want = -up if parity == "odd" else up
    bad = np.flatnonzero(np.abs(um - want) > 1e-9 * np.maximum(1.0, np.abs(up)))
    if len(bad):
        xk, yk = xx[bad[0]].item(), yy[bad[0]].item()
        raise ParityError(f"u_exact violates parity {parity!r} at "
                          f"{(xk if n == 1 else (xk, -xk / 2), yk)}")


def _check_h_list(h_list: Sequence[float]) -> None:
    """Raise ValueError unless h_list is strictly decreasing with >= 3 entries."""
    if len(h_list) < 3 or np.any(np.diff(h_list) >= 0):
        raise ValueError("h_list must be strictly decreasing with >= 3 entries")


def convergence_study(factory: Callable, h_list: Sequence[float]) -> Tuple[list, SolveReport]:
    """Solve factory(h) -> (operator, rhs, exact) over decreasing h.

    Returns (rows, finest): rows (h, max_error, order_estimate), where order
    is the local log2 slope between successive levels, math.nan for the
    first, and the string flag 'exact' replaces the order when errors sit at
    rounding level; finest is the solve report of the last (finest) level."""
    _check_h_list(h_list)
    rows = []
    prev = None
    for h in h_list:
        op, rhs, exact = factory(h)
        rep = solve_linear(op, rhs)
        e = float(np.max(np.abs(rep.field.values - exact.values)))
        scale = float(np.max(np.abs(exact.values))) or 1.0
        if prev is None:
            order: object = math.nan
        elif e < 1e-12 * scale and prev[1] < 1e-12 * scale:
            order = "exact"
        else:
            order = math.log(prev[1] / max(e, 1e-300)) / math.log(prev[0] / h)
        rows.append((h, e, order))
        prev = (h, e)
    return rows, rep
