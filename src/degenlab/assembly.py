"""Flux-form finite volumes for -div(w A grad u) = w f + div(w F) + w b.grad u.

Unknowns are cell averages at cell centers; the discrete operator is built
from face transmissibilities

    tau_f = (face area) / R_f,      R_f = int_segment ds / (w * A_nn),

so that the bilinear form sum_f tau_f (u_hi - u_lo)(v_hi - v_lo) is symmetric
and positive.  For y-faces the resistance integral R_f is evaluated exactly
through the characteristic antiderivative of the weight family (the odd
comparison solution is literally the resistance function of the operator in
the y-direction); x-faces use the harmonic mean of the adjacent cell weights
with the tensor factor at the face midpoint.  This keeps the scheme exact for
the model odd solution in one dimension and uniformly well behaved across the
degenerate/singular range of exponents.

The operator is built with array operations over the lattice ``grid.index``,
by one code path for n = 1 and n = 2.  Weight models are evaluated a grid
column at a time and return arrays (the contract is on :class:`WeightModel`),
so all the y-faces of a column cost one ``resistance_y`` call.  x-faces come
from slicing the lattice along each axis, the matrix from concatenated COO
triplets, and the faces are kept as arrays (:class:`Faces`) for right-hand
sides.  The only per-cell Python work left is calling the user's samplers
(mu, b_tilde, t_field, drift and the data).

Boundary handling:
* characteristic plane (y = 0): odd parity imposes u = 0 through the exact
  half-cell resistance; even parity imposes zero weighted flux (no term).
* outer boundary (including the staircase of masked half-disk cells):
  Dirichlet data enter through half-cell transmissibilities, first order.

The drift term is a centered-difference contribution folded into the matrix
(nonsymmetric part); a zero drift sampler produces exactly the drift-free
matrix.
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
    SingularWeightError,
    WeightFamily,
    chi,
    rho,
    v_char_profile,
)

DIRECT_SOLVE_MAX = 5_000
ITERATION_CAP = 100_000


class ParityError(ValueError):
    """Raised when a sampled exact solution does not respect the stated parity."""


class EllipticityError(ValueError):
    """Raised when the assembled tensor fails the uniform ellipticity check."""


# ---------------------------------------------------------------------------
# Operator coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorSpec:
    """Coefficient tensor A = mu * [[B_tilde, T], [T^t, 1]] with metadata.

    ``mu(x, y)`` is scalar with 1/C <= mu <= C; ``b_tilde(x, y)`` returns the
    (n, n) block (scalar for n = 1); ``t_field(x, y)`` returns the coupling
    vector (scalar for n = 1) and must vanish at y = 0.  All default to the
    identity tensor.  x is a scalar for n = 1 and a length-2 tuple for n = 2.
    """

    mu: Optional[Callable] = None
    b_tilde: Optional[Callable] = None
    t_field: Optional[Callable] = None

    def mu_val(self, x, y) -> float:
        return 1.0 if self.mu is None else float(self.mu(x, y))

    def b_tilde_diag(self, x, y, axis: int, n: int) -> float:
        if self.b_tilde is None:
            return 1.0
        v = self.b_tilde(x, y)
        if n == 1:
            return float(v)
        return float(np.asarray(v)[axis, axis])

    def t_val(self, x, y, n: int) -> np.ndarray:
        if self.t_field is None:
            return np.zeros(n)
        return np.atleast_1d(np.asarray(self.t_field(x, y), dtype=float))

    def mu_at(self, pts: np.ndarray, n: int) -> np.ndarray:
        """mu at each row (x..., y) of pts."""
        if self.mu is None:
            return np.ones(len(pts))
        return np.array([self.mu_val(*_split(p, n)) for p in pts])

    def b_tilde_diag_at(self, pts: np.ndarray, axis: int, n: int) -> np.ndarray:
        """The (axis, axis) entry of B_tilde at each row (x..., y) of pts."""
        if self.b_tilde is None:
            return np.ones(len(pts))
        return np.array([self.b_tilde_diag(*_split(p, n), axis, n) for p in pts])

    def a_matrix(self, x, y, n: int) -> np.ndarray:
        mu = self.mu_val(x, y)
        if self.b_tilde is None:
            bt = np.eye(n)
        else:
            bt = np.atleast_2d(np.asarray(self.b_tilde(x, y), dtype=float))
        t = self.t_val(x, y, n)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = bt
        A[:n, n] = t
        A[n, :n] = t
        A[n, n] = 1.0
        return mu * A

    def check_ellipticity(self, n: int = 1, npoints: int = 1000, ndirs: int = 10,
                          tol: float = 1e-12) -> Tuple[float, float]:
        """Sample lambda1, lambda2 on a deterministic point/direction lattice."""
        lam1, lam2 = math.inf, 0.0
        pts = _halton_points(npoints, n + 1)
        dirs = _circle_directions(ndirs, n + 1)
        for p in pts:
            x = p[0] if n == 1 else tuple(p[:n])
            y = p[n]
            A = self.a_matrix(x, y, n)
            for d in dirs:
                q = float(d @ A @ d)
                lam1 = min(lam1, q)
                lam2 = max(lam2, q)
        if lam1 <= tol:
            raise EllipticityError(f"tensor not uniformly elliptic: lambda1={lam1:.3g}")
        return lam1, lam2

    def check_j_symmetry(self, n: int = 1, npoints: int = 200, tol: float = 1e-10) -> float:
        """Max deviation of A(x, y) - J A(x, -y) J over sample points."""
        J = np.eye(n + 1)
        J[n, n] = -1.0
        worst = 0.0
        for p in _halton_points(npoints, n + 1):
            x = p[0] if n == 1 else tuple(p[:n])
            y = p[n]
            A1 = self.a_matrix(x, y, n)
            A2 = J @ self.a_matrix(x, -y, n) @ J
            worst = max(worst, float(np.max(np.abs(A1 - A2))))
        return worst

    def check_sigma_invariance(self, n: int = 1, npoints: int = 200) -> float:
        """Max |T(x, 0)| over sample points (must vanish: A(x,0) e_y = mu e_y)."""
        worst = 0.0
        for p in _halton_points(npoints, n):
            x = p[0] if n == 1 else tuple(p)
            worst = max(worst, float(np.max(np.abs(self.t_val(x, 0.0, n)))))
        return worst


def _halton_points(count: int, dim: int) -> np.ndarray:
    """Deterministic low-discrepancy points, x-coords in (-1,1), last in (0,1)."""
    primes = [2, 3, 5][:dim]
    out = np.empty((count, dim))
    for d, p in enumerate(primes):
        i = np.arange(1, count + 1)
        f = 1.0 / p
        val = np.zeros(count)
        while np.any(i > 0):
            val += f * (i % p)
            i = i // p
            f /= p
        out[:, d] = 2.0 * val - 1.0 if d < dim - 1 else val
    return out


def _circle_directions(count: int, dim: int) -> np.ndarray:
    if dim == 2:
        ang = np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    dirs = []
    golden = (1 + math.sqrt(5)) / 2
    for k in range(count):
        th = 2 * math.pi * k / golden
        z = -1 + 2 * (k + 0.5) / count
        r = math.sqrt(max(0.0, 1 - z * z))
        dirs.append([r * math.cos(th), r * math.sin(th), z])
    return np.asarray(dirs)


# ---------------------------------------------------------------------------
# Weight models
# ---------------------------------------------------------------------------

class WeightModel:
    """Weight sampler evaluated one grid column at a time.

    Every method receives the column's position ``xcol`` (a scalar for n = 1,
    a tuple for n = 2) and its full array of cell-center ordinates ``ys``, and
    returns an array:

    * ``values(xcol, ys)``: w at the cell centers;
    * ``x_conductivities(xcol, ys)``: the per-cell conductivity of x-faces;
    * ``cell_integral_y(xcol, ys, y0, y1)``: int_{y0}^{y1} w(x, s) ds for each
      pair of endpoint arrays, or None for the midpoint fallback w h;
    * ``resistance_y(xcol, ys, y0, y1)``: int_{y0}^{y1} ds/(w(s) mu(x, s)) for
      each segment, or None for the generic harmonic-mean fallback.

    Assembly makes one call of each per column, so all the y-faces of a
    column cost one ``resistance_y`` call.
    """

    weight_id = "generic"

    def values(self, xcol, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def resistance_y(self, xcol, ys: np.ndarray, y0: np.ndarray,
                     y1: np.ndarray) -> Optional[np.ndarray]:
        return None

    def cell_integral_y(self, xcol, ys: np.ndarray, y0: np.ndarray,
                        y1: np.ndarray) -> Optional[np.ndarray]:
        """int_{y0}^{y1} w(x, s) ds, or None for the midpoint fallback.

        Matters near the plane, where the weight's curvature makes the
        midpoint rule O(1) relatively wrong in the bottom cell."""
        return None

    def x_conductivities(self, xcol, ys: np.ndarray) -> np.ndarray:
        """Per-cell conductivity used for x-direction fluxes.

        Default: the midpoint values, exact on the odd characteristic branch
        (w * v is linear in y); the quotient weight overrides with y-averages,
        exact on the even smooth branch."""
        return self.values(xcol, ys)


class ConstantWeight(WeightModel):
    def __init__(self, value: float = 1.0):
        self.value = float(value)
        self.weight_id = f"const[{value:g}]"

    def values(self, xcol, ys):
        return np.full_like(np.asarray(ys, dtype=float), self.value)


class RhoWeight(WeightModel):
    """w = rho(y); exact resistances through the characteristic antiderivative.

    With mu present, int ds/(w mu) = int rho^(-a) mu^(-1) ds is the
    characteristic-solution increment divided by (1-a)."""

    def __init__(self, family: WeightFamily, mu_inverse: Optional[Callable] = None,
                 quadrature_tol: float = 1e-10):
        self.family = family
        self.sol = CharacteristicSolution(family, mu_inverse,
                                          quadrature_tol=quadrature_tol)
        self.supersingular = family.a <= -1.0 and family.eps == 0.0
        self.weight_id = f"rho[a={family.a:g},eps={family.eps:g}]"

    def values(self, xcol, ys):
        return rho(self.family, np.asarray(ys, dtype=float))

    def resistance_y(self, xcol, ys, y0, y1):
        if self.sol.mu_inverse is None:
            return chi(self.family, y1) - chi(self.family, y0)
        return np.array([self.sol.segment_integral(xcol, s0, s1)
                         for s0, s1 in zip(y0, y1)], dtype=float)

    def cell_integral_y(self, xcol, ys, y0, y1):
        a, eps = self.family.a, self.family.eps
        if eps == 0.0:
            if a <= -1.0:
                return None            # non-integrable alone; midpoint pairs with vanishing f
            return (y1 ** (1.0 + a) - y0 ** (1.0 + a)) / (1.0 + a)
        ym = 0.5 * (y0 + y1)
        return (y1 - y0) / 6.0 * (rho(self.family, y0) + 4.0 * rho(self.family, ym)
                                  + rho(self.family, y1))


class AuxiliaryWeight(WeightModel):
    """w = rho (v)^2 with v the characteristic odd solution (quotient weight).

    Values and resistances come from a column ladder of v at half-spacing
    resolution (``v_char_profile``: segment integrals memoized on the
    solution when mu varies, closed form when mu == 1); the resistance of the
    first half cell [0, h/2] is infinite (super-degenerate weight), which
    encodes the natural zero-flux closure.
    """

    def __init__(self, sol: CharacteristicSolution):
        self.sol = sol
        fam = sol.family
        self.weight_id = f"rho_v2[a={fam.a:g},eps={fam.eps:g}]"

    def _column(self, xcol, ys) -> Tuple[np.ndarray, np.ndarray]:
        """The half-spacing ladder of ordinates and v on it."""
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        ladder_y = np.arange(1, 2 * len(ys) + 1) * (h / 2.0)
        return ladder_y, v_char_profile(self.sol, xcol, ladder_y)

    @staticmethod
    def _v_at(col, y: np.ndarray) -> np.ndarray:
        """v at ordinates y > 0: ladder values where y sits on a ladder point,
        linear interpolation between points, through the origin below the
        first point and constant above the last."""
        ly, lv = col
        i = np.searchsorted(ly, y)
        top = i >= len(ly)
        ic = np.minimum(i, len(ly) - 1)
        on = ~top & (np.abs(ly[ic] - y) < 1e-12)
        out = np.where(top, lv[-1], lv[0] * y / ly[0])
        mid = ~on & ~top & (i > 0)
        k = i[mid]
        t = (y[mid] - ly[k - 1]) / (ly[k] - ly[k - 1])
        out[mid] = (1 - t) * lv[k - 1] + t * lv[k]
        out[on] = lv[ic[on]]
        return out

    def values(self, xcol, ys):
        ys = np.asarray(ys, dtype=float)
        v = self._column(xcol, ys)[1][::2]
        return rho(self.sol.family, ys) * v * v

    def resistance_y(self, xcol, ys, y0, y1):
        """Face-midpoint rule R = (y1-y0) / (rho v^2 mu)(face).

        The even quotient problem's smooth branch behaves like c + beta y^2
        at the plane; the face-midpoint flux is exact for that branch, while
        a harmonic or line-resistance rule (exact for the odd problem's
        singular branch) has an O(1) relative flux error at the first face."""
        fam = self.sol.family
        out = np.full(len(y0), math.inf)
        pos = y0 > 0.0
        ym = 0.5 * (y0[pos] + y1[pos])
        if self.sol.mu_inverse is None:
            v = (1.0 - fam.a) * chi(fam, ym)
            k = rho(fam, ym) * v * v
        else:
            v = self._v_at(self._column(xcol, ys), ym)
            mi = np.array([self.sol.mu_inverse(xcol, y) for y in ym], dtype=float)
            k = rho(fam, ym) * v * v / mi
        out[pos] = (y1[pos] - y0[pos]) / k
        return out

    def x_conductivities(self, xcol, ys):
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        j = np.arange(len(ys))
        return self.cell_integral_y(xcol, ys, j * h, (j + 1) * h) / h

    def cell_integral_y(self, xcol, ys, y0, y1):
        fam = self.sol.family
        if self.sol.mu_inverse is None and fam.eps == 0.0:
            p = 3.0 - fam.a          # rho * ((1-a) chi)^2 = y^(2-a) exactly
            return (y1 ** p - y0 ** p) / p
        col = self._column(xcol, ys)

        def w_at(y):
            out = np.zeros(len(y))   # super-degenerate: rho v^2 -> 0 at the plane
            pos = y > 0.0
            v = self._v_at(col, y[pos])
            out[pos] = rho(fam, y[pos]) * v * v
            return out

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
        vals = np.array([fn(*_split(p, grid.n)) for p in grid.centers])
        return cls(grid, vals, parity)

    def lattice(self) -> np.ndarray:
        out = np.full(self.grid.lattice_shape(), np.nan)
        out[self.grid.index >= 0] = self.values[self.grid.index[self.grid.index >= 0]]
        return out

    def interpolate(self, points: np.ndarray, trace: Optional[Callable] = None) -> np.ndarray:
        """Bilinear interpolation (n=1 grids) with parity ghosts below y=h/2.

        Points outside the cell-center hull fall back to the trace sampler
        when given, else to the nearest valid cell value."""
        if self.grid.n != 1:
            raise NotImplementedError("interpolation implemented for n=1 grids")
        g = self.grid
        lat = self.lattice()
        h = g.h
        out = np.empty(len(points))
        for k, (xq, yq) in enumerate(points):
            fx = (xq + 1.0) / h - 0.5
            fy = yq / h - 0.5
            i0 = int(math.floor(fx))
            j0 = int(math.floor(fy))
            tx = fx - i0
            ty = fy - j0
            vals = np.empty((2, 2))
            ok = True
            for di in (0, 1):
                for dj in (0, 1):
                    i, j = i0 + di, j0 + dj
                    if 0 <= i < g.nx and 0 <= j < g.ny and np.isfinite(lat[i, j]):
                        vals[di, dj] = lat[i, j]
                    elif j == -1 and 0 <= i < g.nx and np.isfinite(lat[i, 0]) \
                            and self.parity in ("odd", "even"):
                        vals[di, dj] = -lat[i, 0] if self.parity == "odd" else lat[i, 0]
                    elif trace is not None:
                        vals[di, dj] = trace(-1.0 + (i + 0.5) * h, (j + 0.5) * h)
                    else:
                        ok = False
            if ok:
                out[k] = ((1 - tx) * (1 - ty) * vals[0, 0] + (1 - tx) * ty * vals[0, 1]
                          + tx * (1 - ty) * vals[1, 0] + tx * ty * vals[1, 1])
            else:
                d2 = ((g.centers[:, 0] - xq) ** 2 + (g.centers[:, 1] - yq) ** 2)
                out[k] = self.values[int(np.argmin(d2))]
        return out


def _split(p: np.ndarray, n: int):
    if n == 1:
        return p[0], p[1]
    return tuple(p[:n]), p[n]


# ---------------------------------------------------------------------------
# Lattice arrays
# ---------------------------------------------------------------------------

def _columns(g: HalfGrid):
    """Yield (c, xcol) for every row c of ``g.index.reshape(-1, g.ny)`` (a
    grid column) holding a live cell; xcol is a scalar for n = 1 and a tuple
    for n = 2."""
    xs = -1.0 + (np.arange(g.nx) + 0.5) * g.h
    live = np.any(g.index >= 0, axis=-1)
    for idx in zip(*np.nonzero(live)):
        c = int(np.ravel_multi_index(idx, live.shape))
        yield c, xs[idx[0]] if g.n == 1 else tuple(xs[list(idx)])


def _column_values(g: HalfGrid, fn: Callable) -> np.ndarray:
    """fn(xcol, ys) on every grid column with a live cell, in dof order."""
    ys = (np.arange(g.ny) + 0.5) * g.h
    cols = g.index.reshape(-1, g.ny)
    out = np.zeros(cols.shape)
    for c, x in _columns(g):
        out[c] = fn(x, ys)
    return out[cols >= 0]


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


def _centered_pairs(g: HalfGrid, axis: int, ghost_coeff: Optional[float] = None):
    """Per-cell centered difference along a lattice axis, times 2h, as two
    (dof, coeff) slots: arrays D, C of shape (ncells, 2) and a mask ok.

    (hi - lo)/2 where both neighbours exist, one-sided differences where one
    is missing; with ``ghost_coeff`` the bottom cells use the parity ghost
    below the plane instead, weighing themselves by ghost_coeff.  ok is False
    where both neighbours are missing."""
    live = g.index >= 0
    m = g.index.shape[axis]
    lo = _shifted(g.index, axis, 0, m)[live]
    hi = _shifted(g.index, axis, 2, m)[live]
    dof = np.arange(g.ncells)
    has_lo, has_hi = lo >= 0, hi >= 0
    c1 = np.where(has_lo & has_hi, 0.5, 1.0)
    c2 = -c1
    if ghost_coeff is not None:
        bottom = np.zeros(g.ncells, dtype=bool)
        bottom[g.index[..., 0][live[..., 0]]] = True
        ghost = bottom & has_hi
        c1[ghost], c2[ghost] = 0.5, ghost_coeff
    D = np.stack([np.where(has_hi, hi, dof), np.where(has_lo, lo, dof)], axis=1)
    return D, np.stack([c1, c2], axis=1), has_lo | has_hi


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
    spec: OperatorSpec
    has_drift: bool
    faces: Faces = field(repr=False)
    assembly_weight_id: str = ""
    flagged_supersingular: bool = False

    def rhs(self, f: Optional[Callable] = None, F: Optional[Callable] = None,
            trace: Optional[Callable] = None) -> np.ndarray:
        g = self.grid
        fc = self.faces
        out = np.zeros(g.ncells)
        if f is not None:
            fv = np.array([f(*_split(p, g.n)) for p in g.centers])
            out += g.h ** g.n * _cell_weight_integrals(self.weight, g) * fv
        if F is not None:
            Fn = np.array([np.atleast_1d(np.asarray(F(*_split(m, g.n)), dtype=float))[ax]
                           for m, ax in zip(fc.mid, fc.axis)])
            fc.add_flux(out, g.h ** g.n * fc.weight * Fn)
        if trace is not None:
            d = fc.dirichlet
            tv = np.array([trace(*_split(m, g.n)) for m in fc.mid[d]], dtype=float)
            np.add.at(out, np.maximum(fc.lo, fc.hi)[d], fc.tau[d] * tv)
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def residual(self, u: np.ndarray, rhs: np.ndarray) -> float:
        r = self.matrix @ u - rhs
        denom = float(np.linalg.norm(rhs))
        return float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)


def _cell_weight_integrals(weight: WeightModel, g: HalfGrid) -> np.ndarray:
    """Per-cell int_cell w dy (exact/Simpson when available, else midpoint w h)."""
    j = np.arange(g.ny)

    def column(x, ys):
        ci = weight.cell_integral_y(x, ys, j * g.h, (j + 1) * g.h)
        return weight.values(x, ys) * g.h if ci is None else ci

    return _column_values(g, column)


def assemble(grid: HalfGrid, weight: WeightModel, spec: Optional[OperatorSpec] = None,
             parity: str = "odd", drift: Optional[Callable] = None,
             outer: str = "dirichlet") -> AssembledOperator:
    """Assemble the flux-form operator; see the module docstring for the scheme.

    outer='neumann' closes the outer boundary with zero weighted flux instead
    of Dirichlet half-cells (with even parity this leaves constants in the
    kernel)."""
    if parity not in ("odd", "even"):
        raise ValueError("assembly parity must be 'odd' or 'even'")
    if outer not in ("dirichlet", "neumann"):
        raise ValueError("outer must be 'dirichlet' or 'neumann'")
    spec = spec or OperatorSpec()
    g = grid
    n, h = g.n, g.h
    area = h ** n
    dirichlet = outer == "dirichlet"
    ys = (np.arange(g.ny) + 0.5) * h
    cols = g.index.reshape(-1, g.ny)
    supersingular = bool(getattr(weight, "supersingular", False)) and parity == "odd"

    # y-faces: face k of column c lies at y = k h, between cells k-1 and k
    lo, hi, mid = _axis_faces(g, n)
    lo, hi = lo.reshape(-1, g.ny + 1), hi.reshape(-1, g.ny + 1)
    mid = mid.reshape(lo.shape + (n + 1,))
    inner = (lo >= 0) & (hi >= 0)
    plane = np.zeros(lo.shape, dtype=bool)
    plane[:, 0] = hi[:, 0] >= 0
    edge = ((lo >= 0) != (hi >= 0)) & ~plane
    need = inner | edge & dirichlet | plane & (parity == "odd")
    y0 = np.where(lo >= 0, np.r_[np.nan, ys], mid[..., n])   # resistance segments:
    y1 = np.where(hi >= 0, np.r_[ys, np.nan], mid[..., n])   # center to center or face

    W, WX = np.ones(cols.shape), np.ones(cols.shape)
    R = np.full(lo.shape, np.nan)
    fallback = np.zeros(lo.shape, dtype=bool)
    for c, x in _columns(g):
        live = cols[c] >= 0
        W[c] = weight.values(x, ys)
        if not np.all(np.isfinite(W[c, live])) or np.any(W[c, live] <= 0):
            raise ValueError(
                f"weight {weight.weight_id!r} non-finite or non-positive at a cell "
                f"in column x={x}")
        WX[c] = weight.x_conductivities(x, ys)
        Rc = weight.resistance_y(x, ys, y0[c, need[c]], y1[c, need[c]])
        if Rc is None:
            fallback[c] = need[c]
        else:
            R[c, need[c]] = Rc
    live = cols >= 0
    wcell, wxcell = W[live], WX[live]

    wf = _face_weight(wcell, lo, hi)
    if fallback.any():
        pts = mid[fallback]
        pts[:, n] = np.where(plane[fallback], h / 4.0, pts[:, n])
        R[fallback] = (np.where(inner, h, h / 2.0)[fallback]
                       / (wf[fallback] * spec.mu_at(pts, n)))
    use = need & (~plane | (np.isfinite(R) & (R > 0)))
    tau = np.zeros(lo.shape)
    tau[use] = area / R[use]
    keep = (lo >= 0) | (hi >= 0)
    parts = [(np.full(np.count_nonzero(keep), n), lo[keep], hi[keep], wf[keep],
              mid[keep], tau[keep], (edge & dirichlet)[keep])]

    # x-faces, axis by axis
    for axis in range(n):
        lo, hi, mid = _axis_faces(g, axis)
        keep = (lo >= 0) | (hi >= 0)
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        inner = (lo >= 0) & (hi >= 0)
        wf = _face_weight(wxcell, lo, hi)
        afac = spec.mu_at(mid, n) * spec.b_tilde_diag_at(mid, axis, n)
        tau = np.where(inner | dirichlet, area * wf * afac / np.where(inner, h, h / 2.0), 0.0)
        parts.append((np.full(len(lo), axis), lo, hi, wf, mid, tau, ~inner & dirichlet))
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
    triplets = [(dofs, dofs, diag), (lo, hi, -tau), (hi, lo, -tau)]

    has_drift = drift is not None
    if spec.t_field is not None or has_drift:
        stencils = [_centered_pairs(g, axis) for axis in range(n)]
        stencils.append(_centered_pairs(g, n, 0.5 if parity == "odd" else -0.5))
    if spec.t_field is not None:
        triplets.append(_cross_terms(g, spec, wcell, stencils))
    if has_drift:
        triplets.append(_drift_terms(g, wcell, drift, stencils))

    rows, cols_, vals = (np.concatenate(a) for a in zip(*triplets))
    M = sp.coo_matrix((vals, (rows, cols_)), shape=(g.ncells, g.ncells)).tocsr()
    return AssembledOperator(
        matrix=M, grid=g, parity=parity, weight=weight, spec=spec,
        has_drift=has_drift, faces=faces, assembly_weight_id=weight.weight_id,
        flagged_supersingular=supersingular)


def _cross_terms(g, spec, wcell, stencils):
    """Symmetric cell-centered discretization of the T coupling blocks.

    Per cell and x-axis, (Dx u)(Dy v) + (Dy u)(Dx v) with centered stencils
    (parity ghost in y); COO triplets in cell order."""
    n, h = g.n, g.h
    t = np.array([spec.t_val(*_split(p, n), n) for p in g.centers]).reshape(g.ncells, n)
    coef = h ** (n + 1) * wcell[:, None] * spec.mu_at(g.centers, n)[:, None] * t / (h * h)
    DY, CY, oky = stencils[n]
    active = np.any(t != 0, axis=1) & oky
    rows, cols, vals, ok = [], [], [], []
    for axis in range(n):
        DX, CX, okx = stencils[axis]
        v = coef[:, axis, None, None] * CX[:, :, None] * CY[:, None, :]   # cell, x, y slot
        dx, dy = np.broadcast_arrays(DX[:, :, None], DY[:, None, :])
        rows.append(np.stack([dy, dx], axis=-1))
        cols.append(np.stack([dx, dy], axis=-1))
        vals.append(np.stack([v, v], axis=-1))
        ok.append(np.broadcast_to((active & okx)[:, None, None, None], v.shape + (2,)))
    sel = np.stack(ok, axis=1)
    return tuple(np.stack(a, axis=1)[sel] for a in (rows, cols, vals))


def _drift_terms(g, wcell, drift, stencils):
    """Centered-difference drift contribution, COO triplets in cell order."""
    n, h = g.n, g.h
    b = np.array([np.atleast_1d(np.asarray(drift(*_split(p, n)), dtype=float))
                  for p in g.centers]).reshape(g.ncells, n + 1)
    scale = -h ** (n + 1) * wcell / h
    D = np.stack([s[0] for s in stencils], axis=1)          # cell, axis, stencil slot
    vals = np.stack([(scale * b[:, axis])[:, None] * stencils[axis][1]
                     for axis in range(n + 1)], axis=1)
    ok = np.stack([s[2] for s in stencils], axis=1) & (b != 0.0)
    sel = np.broadcast_to(ok[:, :, None], D.shape)
    rows = np.broadcast_to(np.arange(g.ncells)[:, None, None], D.shape)
    return rows[sel], D[sel], vals[sel]


# ---------------------------------------------------------------------------
# Solves
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    field: DiscreteField
    relative_residual: float
    iterations: int
    assembly_weight_id: str
    method: str
    converged: bool               # info == 0 and relative_residual <= tolerance
    tolerance: float
    info: int                     # 0, or the cg/bicgstab failure flag
    iteration_cap: int = ITERATION_CAP


def solve_linear(op: AssembledOperator, rhs: np.ndarray, tol: float = 1e-10,
                 parity: Optional[str] = None) -> SolveReport:
    """Solve op u = rhs: direct for small systems, diagonally preconditioned
    CG for symmetric ones, BiCGSTAB when a drift makes the matrix nonsymmetric."""
    A = op.matrix
    nn = A.shape[0]
    it_count = [0]

    def cb(_):
        it_count[0] += 1

    info = 0
    if nn <= DIRECT_SOLVE_MAX:
        u = spla.spsolve(A.tocsc(), rhs)
        method = "direct-sparse-lu"
    elif not op.has_drift:
        d = A.diagonal()
        M = sp.diags(1.0 / np.where(d > 0, d, 1.0))
        u, info = spla.cg(A, rhs, rtol=tol * 1e-2, atol=0.0,
                          maxiter=ITERATION_CAP, M=M, callback=cb)
        method = "cg-jacobi"
    else:
        d = A.diagonal()
        M = sp.diags(1.0 / np.where(np.abs(d) > 0, d, 1.0))
        u, info = spla.bicgstab(A, rhs, rtol=tol * 1e-2, atol=0.0,
                                maxiter=ITERATION_CAP, M=M, callback=cb)
        method = "bicgstab-jacobi"
    res = op.residual(u, rhs)
    fld = DiscreteField(op.grid, u, op.parity if parity is None else parity)
    return SolveReport(field=fld, relative_residual=res, iterations=it_count[0],
                       assembly_weight_id=op.assembly_weight_id, method=method,
                       converged=info == 0 and res <= tol, tolerance=tol, info=info)


def manufactured_problem(u_exact: Callable, op: AssembledOperator, mode: str = "discrete",
                         f: Optional[Callable] = None, F: Optional[Callable] = None
                         ) -> Tuple[np.ndarray, DiscreteField]:
    """Right-hand side + exact field for the method of manufactured solutions.

    mode='discrete': rhs = A u_exact (solver must reproduce u_exact to solver
    tolerance); mode='analytic': rhs from the continuum forcing f (and F) with
    Dirichlet data sampled from u_exact (solver converges at scheme order)."""
    g = op.grid
    exact = DiscreteField.sample(g, u_exact, op.parity)
    _check_parity(u_exact, op.parity, g.n)
    if mode == "discrete":
        return op.matrix @ exact.values, exact
    if mode != "analytic":
        raise ValueError("mode must be 'discrete' or 'analytic'")
    rhs = op.rhs(f=f, F=F, trace=u_exact)
    return rhs, exact


def _check_parity(u_exact, parity, n, tol=1e-9):
    if parity not in ("odd", "even"):
        return
    probes = [(0.3, 0.4), (-0.5, 0.7), (0.1, 0.2)]
    for xx, yy in probes:
        x = xx if n == 1 else (xx, -xx / 2)
        up = u_exact(x, yy)
        um = u_exact(x, -yy)
        want = -up if parity == "odd" else up
        if abs(um - want) > tol * max(1.0, abs(up)):
            raise ParityError(f"u_exact violates parity {parity!r} at {(x, yy)}")


def convergence_study(factory: Callable, h_list: Sequence[float],
                      region: Optional[Callable] = None,
                      tol: float = 1e-10) -> Tuple[list, SolveReport]:
    """Solve factory(h) -> (operator, rhs, exact_field) over decreasing h.

    Returns (rows, finest): rows (h, max_error, order_estimate), where order
    is the local log2 slope between successive levels, math.nan for the
    first, and the string flag 'exact' replaces the order when errors sit at
    rounding level; finest is the solve report of the last (finest) level."""
    if len(h_list) < 3 or np.any(np.diff(h_list) >= 0):
        raise ValueError("h_list must be strictly decreasing with >= 3 entries")
    rows = []
    prev = None
    for h in h_list:
        op, rhs, exact = factory(h)
        rep = solve_linear(op, rhs, tol=tol)
        err = np.abs(rep.field.values - exact.values)
        if region is not None:
            sel = np.array([region(*_split(p, op.grid.n)) for p in op.grid.centers])
            err = err[sel]
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
