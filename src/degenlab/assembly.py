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

The operator is built with array operations over the lattice ``grid.index``,
by one code path for n = 1 and n = 2.  The grid's :class:`Stencil`, built
once per grid, holds what depends on the grid alone: the faces, from slicing
the lattice along each axis, each cell's faces and the CSR pattern.  An
assembly computes the weights, transmissibilities and diagonal and gathers
them into the matrix.  Weight models are evaluated on all the live grid
columns at once (the contract, and mu, is :class:`WeightModel`'s), so the
y-faces of a grid cost one ``resistance_y`` call.  The faces are kept as
arrays (:class:`Faces`) for right-hand sides.  There is no per-cell Python
work: every user sampler (mu_inverse, the data f, F and the trace, and
exact solutions) takes coordinate arrays and is called once on all the
points it is needed at, through ``weights._sample``.

Boundary handling:
* characteristic plane (y = 0): odd parity imposes u = 0 through the exact
  half-cell resistance; even parity imposes zero weighted flux (no term).
* outer boundary (including the staircase of masked half-disk cells):
  Dirichlet data enter through half-cell transmissibilities, first order.

Linear solves: CG (:func:`_cg`, scipy's ``cg`` recursion), preconditioned
on the n = 1 half rectangle by the exact solve of the separable fit of the
face transmissibilities (Lynch, Rice & Thomas, 1964; Concus & Golub, 1973),
which every operator the CLI assembles matches, so CG stops within two
steps; masked and n = 2 grids take the diagonal.  Every solve aims at the relative
residual ``SOLVER_TOL``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, lapack

from .geometry import HalfGrid
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
    """Weight sampler evaluated on all the live grid columns at once.

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
      the segments y0, y1 of shape S + (m,), NaN where a segment is not asked
      for.

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
        ask = ~np.isnan(y0)
        N = np.r_[0.0, sol.integral(_half_ladder(ys), keep=True)]
        i0, i1 = (np.rint(y[ask] / ys[0]).astype(np.intp) for y in (y0, y1))
        out = np.full(y0.shape, np.nan)
        out[ask] = N[i1] - N[i0]
        return np.asarray(sol.m_inv_at(x))[..., None] * out

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
        out[self.grid.index >= 0] = self.values[self.grid.index[self.grid.index >= 0]]
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
    """fn(x, ys) on all the grid columns with a live cell in one call, at
    the live cells in dof order."""
    st = g.stencil
    return np.broadcast_to(fn(st.x, st.ys), st.live.shape)[st.live]


def _axis_faces(g: HalfGrid, axis: int):
    """Dofs on both sides (-1 outside) and midpoints (x..., y) of the faces
    normal to a lattice axis (axis n is y), as flat arrays ordered by the
    other lattice coordinates first and the face position last."""
    m = g.index.shape[axis]
    pad = [(0, 0)] * g.index.ndim
    pad[axis] = (1, 1)
    cells = np.moveaxis(np.pad(g.index, pad, constant_values=-1), axis, -1)
    lo, hi = cells[..., :-1].ravel(), cells[..., 1:].ravel()
    h = g.h
    coords = [-1.0 + (np.arange(g.nx) + 0.5) * h] * g.n + [(np.arange(g.ny) + 0.5) * h]
    coords[axis] = (-1.0 if axis < g.n else 0.0) + np.arange(m + 1) * h
    mid = np.stack([np.moveaxis(c, axis, -1).ravel()
                    for c in np.meshgrid(*coords, indexing="ij")], axis=-1)
    return lo, hi, mid


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Faces:
    """Every face next to a live cell, as parallel arrays.

    Order: the y-faces column by column from the plane up, then the x-faces
    of each axis.  ``lo``/``hi`` are the dofs below/above (left/right) of the
    face, -1 outside the grid; ``weight`` is the face weight of the flux
    w F.n; ``mid`` the midpoint (x..., y); ``dirichlet`` marks the outer
    faces where the trace enters, with transmissibility ``tau``."""

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
    columns with a live cell (``x``, ``live``, ``ys``); the weight-free, read-only
    :class:`Faces` fields; the y-faces of the live columns (``ykeep`` the
    kept ones, ``plane``, ``need[parity]`` and the segment ends ``y0``,
    ``y1``); the cell values of each face weight (``side``, ``inner``,
    ``inner_hi``, into the y-face values followed by the x-face ones);
    ``slots``, each cell's lower and upper face per axis, y first; and the
    CSR pattern, ``src`` naming each entry's face, or its cell past the faces.
    Dofs increase in lattice order, so a row's slots are in column order."""

    def __init__(self, g: HalfGrid):
        n, h = g.n, g.h
        rows = np.flatnonzero(np.any(g.index.reshape(-1, g.ny) >= 0, axis=1))
        xs = -1.0 + (np.arange(g.nx) + 0.5) * h
        self.x = _x_of([xs[i] for i in np.unravel_index(rows, (g.nx,) * n)])
        self.live = g.index.reshape(-1, g.ny)[rows] >= 0
        self.ys = (np.arange(g.ny) + 0.5) * h

        # y-faces: face k of a live column lies at y = k h, between cells k-1 and k
        lo, hi, mid = (a.reshape(-1, g.ny + 1, *a.shape[1:])[rows]
                       for a in _axis_faces(g, n))
        plane = np.zeros(lo.shape, dtype=bool)
        plane[:, 0] = hi[:, 0] >= 0
        edge = ((lo >= 0) != (hi >= 0)) & ~plane
        self.ykeep = keep = (lo >= 0) | (hi >= 0)
        self.plane = plane[keep]
        self.need = {"even": (lo >= 0) & (hi >= 0) | edge}
        self.need["odd"] = self.need["even"] | plane
        self.y0 = np.where(lo >= 0, np.r_[np.nan, self.ys], mid[..., n])   # center to center
        self.y1 = np.where(hi >= 0, np.r_[self.ys, np.nan], mid[..., n])   # or face
        k = np.flatnonzero(keep)
        parts = [(np.full(len(k), n), lo.ravel()[k], hi.ravel()[k],
                  mid.reshape(-1, n + 1)[k], edge.ravel()[k])]
        for axis in range(n):
            lo, hi, mid = _axis_faces(g, axis)
            k = np.flatnonzero((lo >= 0) | (hi >= 0))
            lo, hi = lo[k], hi[k]
            parts.append((np.full(len(k), axis), lo, hi, mid[k], (lo < 0) | (hi < 0)))
        self.axis, self.lo, self.hi, self.mid, self.dirichlet = (np.concatenate(a)
                                                                  for a in zip(*parts))
        off = np.where(self.axis == n, 0, g.ncells)
        inner = np.flatnonzero((self.lo >= 0) & (self.hi >= 0))
        self.side = np.where(self.lo >= 0, self.lo, self.hi) + off
        self.inner, self.inner_hi = inner, self.hi[inner] + off[inner]

        # each cell is the upper side of its lower face and the lower side of its upper one
        self.slots = np.empty((2 * n + 2, g.ncells), dtype=np.int64)
        for i, (axis, side) in enumerate(itertools.product((n, *range(n)), (self.hi, self.lo))):
            on = np.flatnonzero(self.axis == axis)
            cell = side[on]
            self.slots[i, cell[cell >= 0]] = on[cell >= 0]
        dofs = np.arange(g.ncells)
        lower, upper = [*range(2, 2 * n + 2, 2), 0], [1, *range(2 * n + 1, 2, -2)]
        nb = np.vstack([self.lo[self.slots[lower]], dofs, self.hi[self.slots[upper]]])
        face = np.vstack([self.slots[lower], len(self.lo) + dofs, self.slots[upper]])
        there = (nb >= 0).T               # a row's entries are a column of nb
        self.src = face.T[there]
        pattern = sp.csr_matrix((self.src, nb.T[there], np.r_[0, np.cumsum(there.sum(axis=1))]),
                                shape=(g.ncells, g.ncells))
        self.indices, self.indptr = pattern.indices, pattern.indptr
        for name in ("axis", "lo", "hi", "mid", "dirichlet", "indices", "indptr"):
            getattr(self, name).setflags(write=False)


def assemble(grid: HalfGrid, weight: WeightModel, parity: str = "odd") -> AssembledOperator:
    """Assemble the flux-form operator, symmetric and closed by Dirichlet
    half-cells on the outer boundary; see the module docstring for the
    scheme.  The grid's :class:`Stencil` gives everything but the values."""
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
    wf[st.inner] = 2.0 * wl * wh / (wl + wh)      # harmonic mean between live cells

    need = st.need[parity]
    R = weight.resistance_y(st.x, st.ys, *(np.where(need, y, np.nan) for y in (st.y0, st.y1)))
    R = R[st.ykeep]
    use = need[st.ykeep] & (~st.plane | (np.isfinite(R) & (R > 0)))
    k = len(R)
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
        fits.append((T @ v / (v @ v), v[:-1] + v[1:], -v[1:-1]))   # u, face form of v
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
    """Solve op u = rhs by :func:`_cg`, preconditioned as the module docstring says."""
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
