"""The per-face loop assembly that the array assembly replaced, as a test oracle.

Scalar weight models (one call per face) and the per-face, per-cell Python
loops of ``assemble`` and ``AssembledOperator.rhs``, unchanged apart from
names, except that mu is read point by point from the weight model's
``mu_inverse``, that the quotient weight reads v point by point and exactly
(``v_char``), and that the coupling T, which the array assembly no longer
carries, is gone.  ``test_assembly_oracle.py`` compares the array assembly of
``degenlab.assembly`` against them on matrices and right-hand sides.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from degenlab.geometry import HalfGrid
from degenlab.weights import CharacteristicSolution, WeightFamily, rho, v_char


class _SeedWeightModel:
    weight_id = "generic"

    def resistance_y(self, xcol, y0, y1):
        return None

    def cell_integral_y(self, xcol, y0, y1):
        return None

    def x_conductivities(self, xcol, ys):
        return self.values(xcol, ys)


class SeedRhoWeight(_SeedWeightModel):
    """w = rho(y); exact resistances through the characteristic antiderivative.

    With mu present, int ds/(w mu) = int rho^(-a) mu^(-1) ds is the
    characteristic-solution increment divided by (1-a)."""

    def __init__(self, family: WeightFamily, mu_inverse: Optional[Callable] = None):
        self.family = family
        self.sol = CharacteristicSolution(family, mu_inverse)
        self.weight_id = f"rho[a={family.a:g},eps={family.eps:g}]"

    def values(self, xcol, ys):
        return rho(self.family, np.asarray(ys, dtype=float))

    def resistance_y(self, xcol, y0, y1):
        return self.sol.segment_integral(xcol, y0, y1)

    def cell_integral_y(self, xcol, y0, y1):
        a, eps = self.family.a, self.family.eps
        if eps == 0.0:
            if a <= -1.0:
                return None            # non-integrable alone; midpoint pairs with vanishing f
            return (y1 ** (1.0 + a) - y0 ** (1.0 + a)) / (1.0 + a)
        ym = 0.5 * (y0 + y1)
        vals = rho(self.family, np.array([y0, ym, y1]))
        return float((y1 - y0) / 6.0 * (vals[0] + 4.0 * vals[1] + vals[2]))


class SeedAuxiliaryWeight(_SeedWeightModel):
    """w = rho (v)^2 with v the characteristic odd solution (quotient weight).

    Values and resistances read v point by point, exactly (``v_char``); the
    resistance of the first half cell [0, h/2] is infinite (super-degenerate
    weight), which encodes the natural zero-flux closure.
    """

    def __init__(self, sol: CharacteristicSolution):
        self.sol = sol
        fam = sol.family
        self.weight_id = f"rho_v2[a={fam.a:g},eps={fam.eps:g}]"

    def _v_at(self, xcol, y: float) -> float:
        return float(v_char(self.sol, xcol, y))

    def values(self, xcol, ys):
        ys = np.asarray(ys, dtype=float)
        v = np.array([self._v_at(xcol, y) for y in ys])
        return rho(self.sol.family, ys) * v * v

    def resistance_y(self, xcol, y0, y1):
        """Face-midpoint rule R = (y1-y0) / (rho v^2 mu)(face).

        The even quotient problem's smooth branch behaves like c + beta y^2
        at the plane; the face-midpoint flux is exact for that branch, while
        a harmonic or line-resistance rule (exact for the odd problem's
        singular branch) has an O(1) relative flux error at the first face."""
        fam = self.sol.family
        if y0 <= 0.0:
            return math.inf
        ym = 0.5 * (y0 + y1)
        v = self._v_at(xcol, ym)
        k = float(rho(fam, ym)) * v * v / self.sol.mu_inverse(xcol, ym)
        return (y1 - y0) / k

    def x_conductivities(self, xcol, ys):
        ys = np.asarray(ys, dtype=float)
        h = ys[1] - ys[0] if len(ys) > 1 else 2 * ys[0]
        return np.array([self.cell_integral_y(xcol, j * h, (j + 1) * h)
                         for j in range(len(ys))]) / h

    def cell_integral_y(self, xcol, y0, y1):
        fam = self.sol.family

        def w_at(y):
            if y <= 0.0:
                return 0.0           # super-degenerate: rho v^2 -> 0 at the plane
            v = self._v_at(xcol, y)
            return float(rho(fam, y)) * v * v

        ym = 0.5 * (y0 + y1)
        return (y1 - y0) / 6.0 * (w_at(y0) + 4.0 * w_at(ym) + w_at(y1))


@dataclass
class SeedOperator:
    matrix: sp.csr_matrix
    grid: HalfGrid
    parity: str
    weight: _SeedWeightModel
    dirichlet_faces: list = field(repr=False)   # (dof, tau, midpoint)
    face_weights: list = field(repr=False)      # (axis, lo_dof, hi_dof, w_face, midpoint)

    def rhs(self, f: Optional[Callable] = None, F: Optional[Callable] = None,
            trace: Optional[Callable] = None) -> np.ndarray:
        g = self.grid
        voln = g.h ** (g.n + 1)
        out = np.zeros(g.ncells)
        if f is not None:
            fc = np.array([f(*_split(p, g.n)) for p in g.centers])
            wint = _cell_weight_integrals(self.weight, g)
            out += g.h ** g.n * wint * fc
        if F is not None:
            area = g.h ** g.n
            for axis, lo, hi, wf, mid in self.face_weights:
                Fv = np.atleast_1d(np.asarray(F(*_split(mid, g.n)), dtype=float))
                Fn = float(Fv[axis])
                if lo >= 0:
                    out[lo] += area * wf * Fn
                if hi >= 0:
                    out[hi] -= area * wf * Fn
        if trace is not None:
            for dof, tau, mid in self.dirichlet_faces:
                out[dof] += tau * trace(*_split(mid, g.n))
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def residual(self, u: np.ndarray, rhs: np.ndarray) -> float:
        r = self.matrix @ u - rhs
        denom = float(np.linalg.norm(rhs))
        return float(np.linalg.norm(r)) / (denom if denom > 0 else 1.0)


def _split(p: np.ndarray, n: int):
    if n == 1:
        return p[0], p[1]
    return tuple(p[:n]), p[n]


def _xcol(p, n: int):
    return p[0] if n == 1 else tuple(p[:n])


def _cell_weight_integrals(weight: _SeedWeightModel, g: HalfGrid) -> np.ndarray:
    """Per-cell int_cell w dy (exact/Simpson when available, else midpoint w h)."""
    out = np.empty(g.ncells)
    lat = g.index
    h = g.h
    ys = (np.arange(g.ny) + 0.5) * h
    for idx in np.ndindex(*((g.nx,) * g.n)):
        dofs = lat[idx]
        sel = np.nonzero(dofs >= 0)[0]
        if sel.size == 0:
            continue
        x = _xcol(g.centers[dofs[sel[0]]], g.n)
        wcol = weight.values(x, ys)
        for j in sel:
            ci = weight.cell_integral_y(x, j * h, (j + 1) * h)
            out[dofs[j]] = ci if ci is not None else wcol[j] * h
    return out


def _mu_val(weight: _SeedWeightModel, x, y) -> float:
    """mu at one point: 1 / mu_inverse of the weight model's solution."""
    return 1.0 / float(weight.sol.mu_inverse(x, y))


def assemble(grid: HalfGrid, weight: _SeedWeightModel, parity: str = "odd") -> "SeedOperator":
    """Assemble the flux-form operator with Dirichlet half-cells on the outer
    boundary; see the module docstring for the scheme."""
    if parity not in ("odd", "even"):
        raise ValueError("assembly parity must be 'odd' or 'even'")
    g = grid
    n, h = g.n, g.h
    area = h ** n
    lat = g.index
    ys = (np.arange(g.ny) + 0.5) * h
    rows: list = []
    cols: list = []
    vals: list = []
    dirichlet_faces: list = []
    face_weights: list = []

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    # column-wise pass: y-direction faces + cache of cell x-conductivities
    wxcell = np.empty(g.ncells)
    for idx in np.ndindex(*((g.nx,) * n)):
        dofs = lat[idx]
        live = np.nonzero(dofs >= 0)[0]
        if live.size == 0:
            continue
        x = _xcol(g.centers[dofs[live[0]]], n)
        wcol = weight.values(x, ys)
        if not np.all(np.isfinite(wcol[live])) or np.any(wcol[live] <= 0):
            raise ValueError(
                f"weight {weight.weight_id!r} non-finite or non-positive at a cell "
                f"in column x={x}")
        wxcol = weight.x_conductivities(x, ys)
        wxcell[dofs[live]] = wxcol[live]
        for j in live:
            dof = dofs[j]
            yc = ys[j]
            # face below
            if j == 0 or dofs[j - 1] < 0:
                y_face = j * h
                if j == 0 and parity == "odd":
                    R = weight.resistance_y(x, 0.0, h / 2.0)
                    if R is None:
                        R = (h / 2.0) / (wcol[0] * _mu_val(weight, x, h / 4.0))
                    if math.isfinite(R) and R > 0:
                        tau = area / R
                        add(dof, dof, tau)
                    face_weights.append((n, -1, dof, wcol[0], _mk_point(idx, y_face, h, n)))
                elif j == 0 and parity == "even":
                    face_weights.append((n, -1, dof, wcol[0], _mk_point(idx, y_face, h, n)))
                else:  # staircase face below
                    mid = _mk_point(idx, y_face, h, n)
                    R = weight.resistance_y(x, y_face, yc)
                    if R is None:
                        R = (h / 2.0) / (wcol[j] * _mu_val(weight, x, y_face))
                    tau = area / R
                    add(dof, dof, tau)
                    dirichlet_faces.append((dof, tau, mid))
                    face_weights.append((n, -1, dof, wcol[j], mid))
            # face above
            if j == g.ny - 1 or dofs[j + 1] < 0:
                y_face = (j + 1) * h
                mid = _mk_point(idx, y_face, h, n)
                R = weight.resistance_y(x, yc, y_face)
                if R is None:
                    R = (h / 2.0) / (wcol[j] * _mu_val(weight, x, y_face))
                tau = area / R
                add(dof, dof, tau)
                dirichlet_faces.append((dof, tau, mid))
                face_weights.append((n, dof, -1, wcol[j], mid))
            else:
                up = dofs[j + 1]
                y_face = (j + 1) * h
                R = weight.resistance_y(x, yc, ys[j + 1])
                wh = 2.0 * wcol[j] * wcol[j + 1] / (wcol[j] + wcol[j + 1])
                if R is None:
                    R = h / (wh * _mu_val(weight, x, y_face))
                tau = area / R
                add(dof, dof, tau)
                add(up, up, tau)
                add(dof, up, -tau)
                add(up, dof, -tau)
                face_weights.append((n, dof, up, wh, _mk_point(idx, y_face, h, n)))

    # x-direction faces, axis by axis
    for axis in range(n):
        for idx in np.ndindex(*_axis_iter_shape(g, axis)):
            for f in range(g.nx + 1):
                lo_idx = _insert(idx, axis, f - 1)
                hi_idx = _insert(idx, axis, f)
                lo = int(lat[lo_idx]) if f - 1 >= 0 else -2
                hi = int(lat[hi_idx]) if f <= g.nx - 1 else -2
                if lo < 0 and hi < 0:
                    continue
                mid = _face_mid_x(g, idx, axis, f)
                x_mid = _xcol(mid, n)
                y_mid = mid[n]
                afac = _mu_val(weight, x_mid, y_mid)
                if lo >= 0 and hi >= 0:
                    wl, wh_ = wxcell[lo], wxcell[hi]
                    wf = 2.0 * wl * wh_ / (wl + wh_)
                    tau = area * wf * afac / h
                    add(lo, lo, tau)
                    add(hi, hi, tau)
                    add(lo, hi, -tau)
                    add(hi, lo, -tau)
                    face_weights.append((axis, lo, hi, wf, mid))
                else:
                    dof = lo if lo >= 0 else hi
                    wf = wxcell[dof]
                    tau = area * wf * afac / (h / 2.0)
                    add(dof, dof, tau)
                    dirichlet_faces.append((dof, tau, mid))
                    if lo >= 0:
                        face_weights.append((axis, dof, -1, wf, mid))
                    else:
                        face_weights.append((axis, -1, dof, wf, mid))

    M = sp.coo_matrix((vals, (rows, cols)), shape=(g.ncells, g.ncells)).tocsr()
    return SeedOperator(
        matrix=M, grid=g, parity=parity, weight=weight,
        dirichlet_faces=dirichlet_faces, face_weights=face_weights)


def _mk_point(idx, y, h, n):
    out = np.empty(n + 1)
    for d in range(n):
        out[d] = -1.0 + (idx[d] + 0.5) * h
    out[n] = y
    return out


def _axis_iter_shape(g: HalfGrid, axis: int):
    dims = [g.nx] * g.n + [g.ny]
    del dims[axis]
    return tuple(dims)


def _insert(idx, axis, v):
    out = list(idx)
    out.insert(axis, v)
    return tuple(out)


def _face_mid_x(g: HalfGrid, idx, axis, f):
    full = _insert(idx, axis, 0)
    out = np.empty(g.n + 1)
    for d in range(g.n):
        out[d] = -1.0 + (full[d] + 0.5) * g.h
    out[axis] = -1.0 + f * g.h
    out[g.n] = (full[g.n] + 0.5) * g.h
    return out
