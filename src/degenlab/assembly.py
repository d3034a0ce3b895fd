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
by one code path for n = 1 and n = 2.  Weight models are evaluated on all
the live grid columns at once (the contract is on :class:`WeightModel`), so
the y-faces of a grid cost one ``resistance_y`` call.  x-faces come from
slicing the lattice along each axis, the matrix from concatenated COO
triplets, and the faces are kept as arrays (:class:`Faces`) for right-hand
sides.  mu is the weight model's alone (see :class:`WeightModel`).  There
is no per-cell Python work: every user sampler (mu_inverse, the data f, F
and the trace, exact solutions and region predicates) takes coordinate
arrays and is called once on all the points it is needed at, through
``weights._sample``.

Boundary handling:
* characteristic plane (y = 0): odd parity imposes u = 0 through the exact
  half-cell resistance; even parity imposes zero weighted flux (no term).
* outer boundary (including the staircase of masked half-disk cells):
  Dirichlet data enter through half-cell transmissibilities, first order.

Linear solves: every planar system (n = 1) is factored by one sparse LU with
the minimum-degree ordering of A^T + A, whatever its size.  Minimum-degree
orderings of 2-D grid operators fill O(N log N) (George & Liu, 1981), so the
factorisation stays cheap; on 3-D grids (n = 2) the fill grows much faster
(40x at h = 1/16), and those take the LU only up to ``DIRECT_SOLVE_MAX``
cells and Jacobi-preconditioned CG above it (the matrix is symmetric),
falling back to the LU when CG fails.  The CSR matrix is factored through
its transpose, a CSC view, so no copy is made, and the solve uses
``trans="T"``; ``panel_size=1`` shrinks SuperLU's panel work arrays, and
with them the peak memory of the factorisation.  Every solve aims at the
relative residual ``SOLVER_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import HalfGrid
from .weights import (
    CharacteristicSolution,
    WeightFamily,
    _coords,
    _sample,
    _x_of,
    chi,
    rho,
    v_char_profile,
)

DIRECT_SOLVE_MAX = 5_000
ITERATION_CAP = 100_000
SOLVER_TOL = 1e-10      # relative residual of every linear solve


class ParityError(ValueError):
    """Raised when a sampled exact solution does not respect the stated parity."""


# ---------------------------------------------------------------------------
# Weight models
# ---------------------------------------------------------------------------

class WeightModel:
    """Weight sampler evaluated on all the live grid columns at once.

    A model owns the coefficient mu of the operator, so one model means one
    operator: ``sol`` is its characteristic solution, whose ``mu_inverse``
    sets the y-resistances and v, and whose ``mu_at`` gives mu on the
    x-faces.

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


def _per_segment(x, ask: np.ndarray):
    """The column position of each True entry of ``ask`` (shape S + (m,))."""
    return _x_of([np.broadcast_to(np.asarray(c)[..., None], ask.shape)[ask] for c in _coords(x)])


class RhoWeight(WeightModel):
    """w = rho(y); exact resistances through the characteristic antiderivative.

    mu is given as ``mu_inverse`` (None: mu == 1), and int ds/(w mu) =
    int rho^(-a) mu^(-1) ds is the characteristic-solution increment divided
    by (1-a).  w == 1 is ``RhoWeight(WeightFamily(0.0))``."""

    def __init__(self, family: WeightFamily, mu_inverse: Optional[Callable] = None):
        self.family = family
        self.sol = CharacteristicSolution(family, mu_inverse)
        self.weight_id = f"rho[a={family.a:g},eps={family.eps:g}]"

    def values(self, x, ys):
        return rho(self.family, np.asarray(ys, dtype=float))

    def resistance_y(self, x, ys, y0, y1):
        ask = ~np.isnan(y0)
        out = np.full(y0.shape, np.nan)
        out[ask] = self.sol.segment_integrals(_per_segment(x, ask), y0[ask], y1[ask])
        return out

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

    Values and resistances come from a ladder of v at half-spacing
    resolution in every column (``v_char_profile``: segment integrals
    memoized on the solution when mu varies, closed form when mu == 1); the
    resistance of the first half cell [0, h/2] is infinite (super-degenerate
    weight), which encodes the natural zero-flux closure.
    """

    def __init__(self, sol: CharacteristicSolution):
        self.sol = sol
        fam = sol.family
        self.weight_id = f"rho_v2[a={fam.a:g},eps={fam.eps:g}]"

    def _ladder(self, x, ys) -> Tuple[np.ndarray, np.ndarray]:
        """The half-spacing ladder of ordinates and v on it in each column."""
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        ladder_y = np.arange(1, 2 * len(ys) + 1) * (h / 2.0)
        return ladder_y, v_char_profile(self.sol, x, ladder_y)

    @staticmethod
    def _v_at(ly: np.ndarray, lv: np.ndarray, y: np.ndarray) -> np.ndarray:
        """v at ordinates y > 0, row by row of the ladder values lv: ladder
        values where y sits on a ladder point, linear interpolation between
        points, through the origin below the first point and constant above
        the last."""
        y = np.broadcast_to(y, lv.shape[:-1] + y.shape[-1:])
        i = np.searchsorted(ly, y)
        top = i >= len(ly)
        ic = np.minimum(i, len(ly) - 1)
        on = ~top & (np.abs(ly[ic] - y) < 1e-12)
        k = np.maximum(ic, 1)
        t = (y - ly[k - 1]) / (ly[k] - ly[k - 1])
        lv0, lv1, lvc = (np.take_along_axis(lv, j, axis=-1) for j in (k - 1, k, ic))
        out = np.where(top, lv[..., -1:], lv[..., :1] * y / ly[0])
        out = np.where(~on & ~top & (i > 0), (1 - t) * lv0 + t * lv1, out)
        return np.where(on, lvc, out)

    def values(self, x, ys):
        ys = np.asarray(ys, dtype=float)
        v = self._ladder(x, ys)[1][..., ::2]
        return rho(self.sol.family, ys) * v * v

    def resistance_y(self, x, ys, y0, y1):
        """Face-midpoint rule R = (y1-y0) / (rho v^2 mu)(face).

        The even quotient problem's smooth branch behaves like c + beta y^2
        at the plane; the face-midpoint flux is exact for that branch, while
        a harmonic or line-resistance rule (exact for the odd problem's
        singular branch) has an O(1) relative flux error at the first face."""
        fam = self.sol.family
        out = np.full(y0.shape, math.inf)
        pos = y0 > 0.0
        ym = 0.5 * (y0 + y1)
        if self.sol.mu_inverse is None:
            v = (1.0 - fam.a) * chi(fam, ym[pos])
            k = rho(fam, ym[pos]) * v * v
        else:
            v = self._v_at(*self._ladder(x, ys), ym)[pos]
            mi = _sample(self.sol.mu_inverse, _per_segment(x, pos), ym[pos])
            k = rho(fam, ym[pos]) * v * v / mi
        out[pos] = (y1[pos] - y0[pos]) / k
        return out

    def x_conductivities(self, x, ys):
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        j = np.arange(len(ys))
        return self.cell_integral_y(x, ys, j * h, (j + 1) * h) / h

    def cell_integral_y(self, x, ys, y0, y1):
        fam = self.sol.family
        if self.sol.mu_inverse is None and fam.eps == 0.0:
            p = 3.0 - fam.a          # rho * ((1-a) chi)^2 = y^(2-a) exactly
            return (y1 ** p - y0 ** p) / p
        ly, lv = self._ladder(x, ys)

        def w_at(y):
            pos = y > 0.0            # super-degenerate: rho v^2 -> 0 at the plane
            yp = np.where(pos, y, ly[0])
            v = self._v_at(ly, lv, yp)
            return np.where(pos, rho(fam, yp) * v * v, 0.0)

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


def _xy(pts: np.ndarray, n: int):
    """The positions x (a tuple for n = 2) and ordinates y of the rows of pts."""
    return _x_of([pts[:, d] for d in range(n)]), pts[:, n]


# ---------------------------------------------------------------------------
# Lattice arrays
# ---------------------------------------------------------------------------

def _columns(g: HalfGrid):
    """The rows of ``g.index.reshape(-1, g.ny)`` (grid columns) holding a
    live cell, and their positions x (an array, a tuple of them for n = 2)."""
    rows = np.flatnonzero(np.any(g.index.reshape(-1, g.ny) >= 0, axis=1))
    xs = -1.0 + (np.arange(g.nx) + 0.5) * g.h
    return rows, _x_of([xs[i] for i in np.unravel_index(rows, (g.nx,) * g.n)])


def _column_values(g: HalfGrid, fn: Callable) -> np.ndarray:
    """fn(x, ys) on all the grid columns with a live cell in one call, at
    the live cells in dof order."""
    rows, x = _columns(g)
    live = g.index.reshape(-1, g.ny)[rows] >= 0
    return np.broadcast_to(fn(x, (np.arange(g.ny) + 0.5) * g.h), live.shape)[live]


def _shifted(index: np.ndarray, axis: int, offset: int, count: int) -> np.ndarray:
    """Entries offset .. offset+count-1 along ``axis`` of index padded with -1
    at both ends of that axis."""
    pad = [(0, 0)] * index.ndim
    pad[axis] = (1, 1)
    return np.take(np.pad(index, pad, constant_values=-1),
                   np.arange(offset, offset + count), axis=axis)


def _axis_faces(g: HalfGrid, axis: int):
    """Dofs on both sides (-1 outside) and midpoints (x..., y) of the faces
    normal to a lattice axis (axis n is y), as flat arrays ordered by the
    other lattice coordinates first and the face position last."""
    m = g.index.shape[axis]
    lo = np.moveaxis(_shifted(g.index, axis, 0, m + 1), axis, -1).ravel()
    hi = np.moveaxis(_shifted(g.index, axis, 1, m + 1), axis, -1).ravel()
    h = g.h
    coords = [-1.0 + (np.arange(g.nx) + 0.5) * h] * g.n + [(np.arange(g.ny) + 0.5) * h]
    coords[axis] = (-1.0 if axis < g.n else 0.0) + np.arange(m + 1) * h
    mid = np.stack([np.moveaxis(c, axis, -1).ravel()
                    for c in np.meshgrid(*coords, indexing="ij")], axis=-1)
    return lo, hi, mid


def _face_weight(wc: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Harmonic mean of the cell values on interior faces, the live cell's
    value on boundary faces."""
    out = np.where(lo >= 0, wc[lo], wc[hi])
    inner = (lo >= 0) & (hi >= 0)
    wl, wh = wc[lo[inner]], wc[hi[inner]]
    out[inner] = 2.0 * wl * wh / (wl + wh)
    return out


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

    def residual(self, u: np.ndarray, rhs: np.ndarray) -> float:
        r = self.matrix @ u - rhs
        denom = float(np.linalg.norm(rhs))
        return float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)


def _cell_weight_integrals(weight: WeightModel, g: HalfGrid) -> np.ndarray:
    """Per-cell int_cell w dy, by the weight model's ``cell_integral_y``."""
    j = np.arange(g.ny)
    return _column_values(g, lambda x, ys: weight.cell_integral_y(x, ys, j * g.h, (j + 1) * g.h))


def assemble(grid: HalfGrid, weight: WeightModel, parity: str = "odd") -> AssembledOperator:
    """Assemble the flux-form operator, symmetric and closed by Dirichlet
    half-cells on the outer boundary; see the module docstring for the scheme."""
    if parity not in ("odd", "even"):
        raise ValueError("assembly parity must be 'odd' or 'even'")
    g = grid
    n, h = g.n, g.h
    area = h ** n
    ys = (np.arange(g.ny) + 0.5) * h

    # y-faces: face k of column c lies at y = k h, between cells k-1 and k
    lo, hi, mid = _axis_faces(g, n)
    lo, hi = lo.reshape(-1, g.ny + 1), hi.reshape(-1, g.ny + 1)
    mid = mid.reshape(lo.shape + (n + 1,))
    inner = (lo >= 0) & (hi >= 0)
    plane = np.zeros(lo.shape, dtype=bool)
    plane[:, 0] = hi[:, 0] >= 0
    edge = ((lo >= 0) != (hi >= 0)) & ~plane
    need = inner | edge | plane & (parity == "odd")
    y0 = np.where(lo >= 0, np.r_[np.nan, ys], mid[..., n])   # resistance segments:
    y1 = np.where(hi >= 0, np.r_[ys, np.nan], mid[..., n])   # center to center or face

    wcell = _column_values(g, weight.values)
    bad = np.flatnonzero(~(np.isfinite(wcell) & (wcell > 0)))
    if len(bad):
        raise ValueError(f"weight {weight.weight_id!r} non-finite or non-positive at the "
                         f"cell centre {tuple(g.centers[bad[0]].tolist())}")
    wxcell = _column_values(g, weight.x_conductivities)
    rows, x = _columns(g)
    R = np.full(lo.shape, np.nan)
    R[rows] = weight.resistance_y(x, ys, *(np.where(need, y, np.nan)[rows] for y in (y0, y1)))
    wf = _face_weight(wcell, lo, hi)
    use = need & (~plane | (np.isfinite(R) & (R > 0)))
    tau = np.zeros(lo.shape)
    tau[use] = area / R[use]
    keep = (lo >= 0) | (hi >= 0)
    parts = [(np.full(np.count_nonzero(keep), n), lo[keep], hi[keep], wf[keep],
              mid[keep], tau[keep], edge[keep])]

    # x-faces, axis by axis
    for axis in range(n):
        lo, hi, mid = _axis_faces(g, axis)
        keep = (lo >= 0) | (hi >= 0)
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        inner = (lo >= 0) & (hi >= 0)
        wf = _face_weight(wxcell, lo, hi)
        tau = area * wf * weight.sol.mu_at(*_xy(mid, n)) / np.where(inner, h, h / 2.0)
        parts.append((np.full(len(lo), axis), lo, hi, wf, mid, tau, ~inner))
    faces = Faces(*(np.concatenate(a) for a in zip(*parts)))

    # diagonal summed per axis, lower face before upper face
    diag = np.zeros(g.ncells)
    for axis in (n, *range(n)):
        on = faces.axis == axis
        for side in (faces.hi[on], faces.lo[on]):
            diag[side[side >= 0]] += faces.tau[on][side >= 0]
    inner = (faces.lo >= 0) & (faces.hi >= 0)
    lo, hi, tau = faces.lo[inner], faces.hi[inner], faces.tau[inner]
    dofs = np.arange(g.ncells)
    rows, cols_, vals = (np.concatenate(a) for a in
                         zip((dofs, dofs, diag), (lo, hi, -tau), (hi, lo, -tau)))
    M = sp.coo_matrix((vals, (rows, cols_)), shape=(g.ncells, g.ncells)).tocsr()
    return AssembledOperator(matrix=M, grid=g, parity=parity, weight=weight, faces=faces)


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    field: DiscreteField
    relative_residual: float
    iterations: int
    method: str
    converged: bool               # relative_residual <= tolerance
    tolerance: float
    info: int                     # 0, or the cg failure flag (the LU then solved)


def solve_linear(op: AssembledOperator, rhs: np.ndarray) -> SolveReport:
    """Solve op u = rhs to the relative residual ``SOLVER_TOL``.

    Planar grids (n = 1), and n = 2 grids of at most ``DIRECT_SOLVE_MAX``
    cells, take one sparse LU: ``splu`` of the CSC view ``A.T`` (no copy)
    with the ``MMD_AT_PLUS_A`` ordering and ``panel_size=1``, solved with
    ``trans="T"``.  Larger n = 2 grids, whose fill grows too fast for a
    direct factorisation, use diagonally preconditioned CG; if that breaks
    down or reaches ``ITERATION_CAP`` (info != 0), the same sparse LU solves
    the system, and the report keeps the CG info."""
    tol = SOLVER_TOL
    A = op.matrix
    nn = A.shape[0]
    it_count = [0]

    def cb(_):
        it_count[0] += 1

    info = 0
    if op.grid.n == 1 or nn <= DIRECT_SOLVE_MAX:
        method = "direct-sparse-lu"
    else:
        d = A.diagonal()
        M = sp.diags(1.0 / np.where(d > 0, d, 1.0))
        u, info = spla.cg(A, rhs, rtol=tol * 1e-2, atol=0.0,
                          maxiter=ITERATION_CAP, M=M, callback=cb)
        method = "cg-jacobi"
    if method == "direct-sparse-lu" or info != 0:
        lu = spla.splu(A.T, permc_spec="MMD_AT_PLUS_A", panel_size=1)
        u = lu.solve(rhs, trans="T")
        method = "direct-sparse-lu"
    res = op.residual(u, rhs)
    fld = DiscreteField(op.grid, u, op.parity)
    return SolveReport(field=fld, relative_residual=res, iterations=it_count[0],
                       method=method, converged=res <= tol, tolerance=tol, info=info)


def manufactured_problem(u_exact: Callable, op: AssembledOperator
                         ) -> Tuple[np.ndarray, DiscreteField]:
    """Right-hand side A u_exact and exact field for the method of
    manufactured solutions: the solver must reproduce u_exact to solver
    tolerance.  (For the scheme's order, solve ``op.rhs(f=..., F=...,
    trace=u_exact)`` against :meth:`DiscreteField.sample` of u_exact.)"""
    _check_parity(u_exact, op.parity, op.grid.n)
    exact = DiscreteField.sample(op.grid, u_exact, op.parity)
    return op.matrix @ exact.values, exact


def _check_parity(u_exact, parity, n, tol=1e-9):
    """u_exact(x, -y) against -u_exact(x, y) (odd) or u_exact(x, y) (even) at
    three probes, all six points in one call."""
    if parity not in ("odd", "even"):
        return
    xx, yy = np.tile([0.3, -0.5, 0.1], 2), np.array([0.4, 0.7, 0.2])
    up, um = np.split(_sample(u_exact, xx if n == 1 else (xx, -xx / 2), np.r_[yy, -yy],
                              "u_exact"), 2)
    want = -up if parity == "odd" else up
    bad = np.flatnonzero(np.abs(um - want) > tol * np.maximum(1.0, np.abs(up)))
    if len(bad):
        xk, yk = xx[bad[0]].item(), yy[bad[0]].item()
        raise ParityError(f"u_exact violates parity {parity!r} at "
                          f"{(xk if n == 1 else (xk, -xk / 2), yk)}")


def _check_h_list(h_list: Sequence[float]) -> None:
    """Raise ValueError unless h_list is strictly decreasing with >= 3 entries."""
    if len(h_list) < 3 or np.any(np.diff(h_list) >= 0):
        raise ValueError("h_list must be strictly decreasing with >= 3 entries")


def convergence_study(factory: Callable, h_list: Sequence[float],
                      region: Optional[Callable] = None) -> Tuple[list, SolveReport]:
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
        err = np.abs(rep.field.values - exact.values)
        if region is not None:
            err = err[_sample(region, *_xy(op.grid.centers, op.grid.n), "region") != 0.0]
        e = float(np.max(err)) if err.size else 0.0
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
