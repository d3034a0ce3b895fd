"""Half-domain cell-centered grids and Fermi data for embedded plane curves.

Grids are cell-centered on purpose: no unknown ever sits on the
characteristic hyperplane {y = 0}, so singular weights (a <= -1) stay finite
at every sampled point; the smallest ordinate is h/2.  The half disk is the
staircase subset of the half rectangle whose cell centers satisfy |z| <= 1
(documented first-order boundary error; eigenvalue work uses the conforming
nodal mesh in :mod:`degenlab.spectral` instead).  A :class:`Region` is an
axis box of cells: the sweeps measure their seminorms on one, and the
quotient residual keeps the cells of one away from the outer boundary.

For an embedded plane curve with unit normal pointing into the positive side,
the parallel-surface volume element is sqrt(det g^y) = |psi'(x)| (1 - y k(x)),
which doubles as the scalar coefficient mu(x, y) of the transformed operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np


class ChartError(ValueError):
    """Raised when (x, y) leaves the tubular neighborhood (y * kappa >= 1)."""


@dataclass(frozen=True)
class HalfGrid:
    """Cell-centered grid on x in [-1,1]^n, y in (0,1], optionally disk-masked.

    Cells are indexed by integer coordinates (i_1[, i_2], j) with centers
    x_d = -1 + (i_d + 1/2) h and y = (j + 1/2) h.  ``index`` maps lattice
    coords to the dense dof numbering (-1 for masked-out cells).
    """

    n: int
    shape: str                    # 'half_rectangle' | 'half_disk'
    h: float
    nx: int                       # cells per x-axis
    ny: int                       # cells in y
    index: np.ndarray = field(repr=False)     # lattice -> dof, shape (nx,)*n + (ny,)
    centers: np.ndarray = field(repr=False)   # (ncells, n+1)

    @property
    def ncells(self) -> int:
        return self.centers.shape[0]

    @property
    def num_sigma_faces(self) -> int:
        bottom = self.index[..., 0]
        return int(np.count_nonzero(bottom >= 0))

    def lattice_shape(self) -> Tuple[int, ...]:
        return (self.nx,) * self.n + (self.ny,)

    def describe(self) -> str:
        return (f"n={self.n} shape={self.shape} h={self.h:.12g} "
                f"cells={self.ncells} sigma_faces={self.num_sigma_faces}")


@dataclass(frozen=True)
class Region:
    """Axis box |x| <= x_halfwidth, y_min <= y <= y_max."""

    x_halfwidth: float = 0.5
    y_max: float = 0.5
    y_min: float = 0.0

    def mask(self, grid: HalfGrid) -> np.ndarray:
        c = grid.centers
        ok = np.ones(grid.ncells, dtype=bool)
        for d in range(grid.n):
            ok &= np.abs(c[:, d]) <= self.x_halfwidth + 1e-12
        ok &= c[:, grid.n] <= self.y_max + 1e-12
        ok &= c[:, grid.n] >= self.y_min - 1e-12
        return ok


def build_half_grid(n: int, shape: str, h: float) -> HalfGrid:
    """Construct a half-rectangle or half-disk grid of spacing h = 1/m, m >= 4."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    if shape not in ("half_rectangle", "half_disk"):
        raise ValueError(f"unknown shape {shape!r}")
    if shape == "half_disk" and n != 1:
        raise ValueError("half_disk is implemented for n=1 (plane half disk)")
    if not 0.0 < h <= 0.25 + 1e-15:
        raise ValueError(f"h must be in (0, 1/4], got {h}")
    nx = 2.0 / h
    ny = 1.0 / h
    if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
        raise ValueError(f"h={h} does not divide the domain extents")
    nx, ny = int(round(nx)), int(round(ny))
    axes = [(-1.0 + (np.arange(nx) + 0.5) * h) for _ in range(n)]
    ys = (np.arange(ny) + 0.5) * h
    grids = np.meshgrid(*axes, ys, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    if shape == "half_disk":
        mask = (pts ** 2).sum(axis=1) <= 1.0 + 1e-12
    else:
        mask = np.ones(pts.shape[0], dtype=bool)
    index = -np.ones(pts.shape[0], dtype=np.int64)
    index[mask] = np.arange(int(mask.sum()))
    lattice = index.reshape((nx,) * n + (ny,))
    return HalfGrid(n=n, shape=shape, h=h, nx=nx, ny=ny,
                    index=lattice, centers=pts[mask])


# ---------------------------------------------------------------------------
# Embedded curves and Fermi data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedCurve:
    """Plane curve t in [0, 1] -> psi(t), with signed curvature sampler.

    ``psi`` and ``dpsi`` (components first), ``curvature`` and every method
    broadcast over arrays of t.
    The unit normal is the +90-degree rotation of the unit tangent,
    nu = rot90(psi'/|psi'|) with rot90(v) = (-v2, v1); curvature is signed so
    that kappa > 0 bends the curve toward the side nu points into (the y > 0
    side of the Fermi chart).
    """

    psi: Callable[[float], np.ndarray]
    dpsi: Callable[[float], np.ndarray]
    curvature: Callable[[float], float]

    def speed(self, t):
        return np.hypot(*self.dpsi(t))

    def normal(self, t) -> np.ndarray:
        v = self.dpsi(t)
        s = np.hypot(*v)
        if np.any(s < 1e-14):
            raise ValueError("degenerate parametrization: |psi'| ~ 0")
        return np.array([-v[1], v[0]]) / s

    def point(self, t, y=0.0) -> np.ndarray:
        """The Fermi map Z(t, y) = psi(t) + y nu(t)."""
        return np.asarray(self.psi(t), dtype=float) + y * self.normal(t)

    @staticmethod
    def circle(radius: float, center=(0.0, 0.0), arc: float = 1.0,
               theta0: float = 0.0) -> "EmbeddedCurve":
        """Arc of a circle, counter-clockwise from angle theta0 with constant
        speed = ``arc`` length; the normal points to the center, so the Fermi
        ordinate grows toward it (kappa = +1/R)."""
        c = np.asarray(center, dtype=float)
        kap = 1.0 / radius

        def psi(t):
            th = theta0 + arc * t / radius
            return _lead(c, t) + radius * np.array([np.cos(th), np.sin(th)])

        def dpsi(t):
            th = theta0 + arc * t / radius
            return arc * np.array([-np.sin(th), np.cos(th)])

        return EmbeddedCurve(psi=psi, dpsi=dpsi, curvature=lambda t: kap)


def _lead(v: np.ndarray, t) -> np.ndarray:
    """A plane vector v with t's axes appended, so that it broadcasts against t."""
    return v.reshape((2,) + (1,) * np.ndim(t))


def fermi_mu(curve: EmbeddedCurve, x, y):
    """sqrt(det g^y) = |psi'(x)| (1 - y kappa(x)); the coefficient mu(x, y),
    broadcast over arrays x and y.

    Raises :class:`ChartError` if any point leaves the tubular neighborhood."""
    yk = y * curve.curvature(x)
    if np.any(yk >= 1.0):
        raise ChartError(f"Fermi chart invalid: y*kappa = {np.max(yk):.3g} >= 1")
    return curve.speed(x) * (1.0 - yk)
