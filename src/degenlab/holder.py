"""Discrete Hölder seminorms, exponent fitting, and the eps-stability harness.

The regularity statements under test say: the C^{0,alpha} (or C^{1,alpha})
norm of the quotient w = u/v on an interior region is bounded by norms of
the data with a constant that does not depend on the regularization
parameter eps.  The constant itself is not computable, so uniformity is
operationalized as a two-sided check on the seminorm table over an eps-sweep:

* uniformity_ratio = max/min seminorm over the sweep must stay <= ``TAU``
  (3), and
* trend_slope, the fitted slope of the median-normalized seminorm against
  log(1/eps) over the positive entries, must stay <= ``SLOPE_TOL`` (0.1); a
  genuine blow-up as eps -> 0 shows up as a positive slope.

The seminorms are exact: each is the max over all pairs of cells of the
region, which is a box of the cell lattice.  The pairs are grouped by their
horizontal lattice offset k; one offset is one broadcast of every pair of
ordinates against one table of (h |(k, j1 - j2)|)^(-alpha), so a box of
nx columns costs nx array steps; :func:`measure_sweep` computes the tables
once per box shape.

An eps-sweep solves once per eps on one grid (:func:`solve_family`) and
measures those fields (:func:`measure_sweep`), so several tables of one
family, as in ``fermi-demo``, share the solves.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .assembly import DiscreteField, RhoWeight, assemble, solve_linear
from .geometry import HalfGrid, Region, _cell_counts, build_half_grid
from .ratio import V_GUARD, _quotient, _v_on_grid
from .weights import (CharacteristicSolution, MuInverse, WeightFamily, _factor, _sample, chi,
                      rho, v_char)

TAU = 3.0
SLOPE_TOL = 0.1
# the dyadic radii of exponent_estimate, and the oscillation below which a field is flat
EXPONENT_RADII = (0.25, 0.125, 0.0625, 0.03125)
NOISE_FLOOR = 1e-12
SWEEP_MODES = ("ratio_c0", "ratio_c1", "odd_direct_c0")


class EmptyRegionError(ValueError):
    pass


class SweepAbort(RuntimeError):
    """A per-eps solve failed; carries the rows computed so far."""

    def __init__(self, msg: str, partial: list):
        super().__init__(msg)
        self.partial = partial


def _lattice_box(sel: np.ndarray) -> Tuple[slice, ...]:
    """The slices of the box of the cell lattice that the True cells of sel fill."""
    idx = np.nonzero(sel)
    if len(idx[0]) < 2:
        raise EmptyRegionError("region contains fewer than two cells")
    box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in idx)
    if not np.all(sel[box]):
        raise ValueError("region is not a box of the cell lattice")
    return box


def _distance_tables(shape: Tuple[int, ...], h: float, alpha: float) -> list:
    """(hi, lo, weight) for each horizontal offset k of a lattice box of
    ``shape`` (horizontal axes first, y last) over a half space of offsets (a
    pair and its reverse are one pair): the slices that k pairs, and the
    (ny, ny) table (h |(k, j1 - j2)|)^(-alpha), 0 where z1 = z2."""
    *horiz, ny = shape
    dj2 = np.subtract.outer(np.arange(ny), np.arange(ny)) ** 2
    zero = (0,) * len(horiz)
    out = []
    for k in itertools.product(*(range(1 - n, n) for n in horiz)):
        if k < zero:
            continue
        hi = tuple(slice(max(d, 0), n + min(d, 0)) for d, n in zip(k, horiz))
        lo = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(k, horiz))
        dist = h * np.sqrt(sum(d * d for d in k) + dj2)
        out.append((hi, lo, np.divide(1.0, dist ** alpha, out=np.zeros_like(dist),
                                      where=dist > 0)))
    return out


def _box_seminorm(lat: np.ndarray, tables: list) -> float:
    """max over all pairs of cells of the lattice box lat of
    |u(z1) - u(z2)| / |z1 - z2|^alpha, given the :func:`_distance_tables` of
    its shape: one step per offset, every pair of ordinates broadcast."""
    best = 0.0
    for hi, lo, weight in tables:
        diff = lat[hi][..., :, None] - lat[lo][..., None, :]
        np.abs(diff, out=diff)
        diff *= weight
        best = max(best, float(np.max(diff)))
    return best


def _region_cells(grid: HalfGrid, region: Region) -> np.ndarray:
    """The region's cells as a boolean array over the cell lattice."""
    return (grid.index >= 0) & region.mask(grid)[grid.index]


def holder_seminorm(field: DiscreteField, alpha: float, region: Region,
                    tables: Callable = _distance_tables) -> float:
    """max over all pairs of cell centres in the region of
    |u(z1) - u(z2)| / |z1 - z2|^alpha.

    The region must select a box of the cell lattice, as every Region does
    on a half-rectangle grid; a ValueError says when it does not.  The box's
    distance tables are ``tables(shape, h, alpha)``: a caller that measures
    many boxes passes one cache of :func:`_distance_tables`."""
    sel = _region_cells(field.grid, region)
    if not np.any(sel):
        raise EmptyRegionError("region selects no cells")
    lat = field.lattice()[_lattice_box(sel)]
    return _box_seminorm(lat, tables(lat.shape, field.grid.h, alpha))


def c1alpha_seminorm(field: DiscreteField, alpha: float, region: Region,
                     tables: Callable = _distance_tables) -> Tuple[float, float]:
    """(sup |grad u|, max over components of the gradient's alpha-seminorm).

    Centered differences at cells with both neighbors; the vertical derivative
    on the bottom layer uses the parity ghost below the plane.  Both
    components are measured over all pairs of the box of cells in the region
    that have a gradient, as in :func:`holder_seminorm`, with one set of
    distance tables."""
    g = field.grid
    if g.n != 1:
        raise NotImplementedError("c1alpha_seminorm implemented for n=1 grids")
    lat = field.lattice()
    h = g.h
    gx = np.full_like(lat, np.nan)
    gy = np.full_like(lat, np.nan)
    gx[1:-1, :] = (lat[2:, :] - lat[:-2, :]) / (2 * h)
    gy[:, 1:-1] = (lat[:, 2:] - lat[:, :-2]) / (2 * h)
    if field.parity == "odd":
        gy[:, 0] = (lat[:, 1] + lat[:, 0]) / (2 * h)
    elif field.parity == "even":
        gy[:, 0] = (lat[:, 1] - lat[:, 0]) / (2 * h)
    ok = _region_cells(g, region) & np.isfinite(gx) & np.isfinite(gy)
    if not np.any(ok):
        raise EmptyRegionError("region too thin for gradient stencils")
    box = _lattice_box(ok)
    sup_grad = float(np.max(np.hypot(gx[box], gy[box])))
    dist = tables(gx[box].shape, h, alpha)
    semi = max(_box_seminorm(gx[box], dist), _box_seminorm(gy[box], dist))
    return sup_grad, semi


@dataclass(frozen=True)
class ExponentEstimate:
    alpha_hat: float          # least-squares slope, capped at 1
    smooth: bool


def exponent_estimate(field: DiscreteField, center_on_sigma) -> ExponentEstimate:
    """Fit log osc(r) ~ alpha log r over the half-annuli of ``EXPONENT_RADII``
    around a plane point.

    osc(r) = max - min of the field on {r/2 < |z - z0| <= r}; a flat field
    (every osc(r) below ``NOISE_FLOOR``) sets the smooth flag."""
    g = field.grid
    z0 = np.asarray(center_on_sigma, dtype=float)
    d = np.linalg.norm(g.centers - z0[None, :], axis=1)
    oscs = []
    for r in EXPONENT_RADII:
        sel = (d > r / 2.0) & (d <= r)
        if not np.any(sel):
            raise EmptyRegionError(f"no cells in the half-annulus at r={r}")
        vals = field.values[sel]
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if field.parity == "odd":
            # the half-annulus touches the plane, where an odd field's trace is 0
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        oscs.append(hi - lo)
    if max(oscs) < NOISE_FLOOR:
        return ExponentEstimate(alpha_hat=math.inf, smooth=True)
    lr = np.log(np.asarray(EXPONENT_RADII))
    lo = np.log(np.maximum(oscs, 1e-300))
    slope = float(np.polyfit(lr, lo, 1)[0])
    return ExponentEstimate(alpha_hat=min(slope, 1.0), smooth=False)


# ---------------------------------------------------------------------------
# eps-sweep harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemFamily:
    """A fixed problem shape swept over eps.

    The outer Dirichlet trace is v_eps(x, y) * trace_factor(x, y), so the
    quotient w has eps-uniform boundary values by construction; forcing f and
    field F are eps-independent samplers.  ``mu_inverse`` is the pair
    (m^(-1)(x), n^(-1)(y)) of the tensor A = mu I, mu = m(x) n(y)
    (:class:`MuInverse`; None: ``MuInverse()``, mu == 1), for each eps step's
    :class:`RhoWeight`.  Every sampler (f, F, trace_factor and the factors
    of mu_inverse) broadcasts over arrays of positions x and ordinates y, F
    returning its two components along a leading axis."""

    a: float
    f: Optional[Callable] = None
    F: Optional[Callable] = None
    trace_factor: Optional[Callable] = None
    mu_inverse: Optional[MuInverse] = None
    name: str = "family"


@dataclass
class StabilityReport:
    alpha: float
    per_eps: list                     # (eps, seminorm, sup_norm)
    uniformity_ratio: float
    trend_slope: float
    passed: bool
    mode: str
    family: str
    grid_h: float
    restricted: str = "none"

    def verdict(self) -> str:
        region = Region()
        lines = [f"family={self.family} mode={self.mode} alpha={self.alpha:g} "
                 f"h={self.grid_h:g} region=|x|<={region.x_halfwidth:g},"
                 f"y<={region.y_max:g}"]
        for eps, s, sup in self.per_eps:
            lines.append(f"  eps={eps:<6g} seminorm={s:.6g} sup={sup:.6g}")
        lines.append(f"  uniformity_ratio={self.uniformity_ratio:.4g} (tau={TAU:g})  "
                     f"trend_slope={self.trend_slope:.4g} (tol={SLOPE_TOL:g})  "
                     f"=> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EpsSolution:
    """One eps step of a sweep: the odd solution u and v_eps at the cell
    centres (the quotient is u / v)."""

    eps: float
    u: DiscreteField
    v: np.ndarray


def solve_family(family: ProblemFamily, eps_list: Sequence[float],
                 grid_h: float = 1.0 / 64) -> List[EpsSolution]:
    """Solve the odd family once per eps on the half rectangle of spacing grid_h.

    A solve that does not converge raises SweepAbort carrying the solutions
    before it."""
    grid = build_half_grid(1, "half_rectangle", grid_h)
    out = []
    for eps in eps_list:
        weight = RhoWeight(WeightFamily(family.a, eps), family.mu_inverse)
        sol = weight.sol        # one solution per eps: the trace and v read its ladder of N
        op = assemble(grid, weight, parity="odd")
        trace = _family_trace(family, sol)
        rhs = op.rhs(f=family.f, F=family.F, trace=trace)
        rep = solve_linear(op, rhs)
        if not rep.converged:
            raise SweepAbort(
                f"solver failed at eps={eps}: residual {rep.relative_residual:.2e}",
                partial=out)
        out.append(EpsSolution(eps, rep.field, _v_on_grid(sol, grid)))
    return out


def measure_sweep(family: ProblemFamily, solutions: Sequence[EpsSolution], alpha: float,
                  mode: str = "ratio_c0", restricted: str = "none") -> StabilityReport:
    """Measure each solution per mode on the fixed :class:`Region` and
    assemble the report.

    modes: 'ratio_c0' (alpha-seminorm of w = u/v), 'ratio_c1' (gradient
    seminorm of w), 'odd_direct_c0' (alpha-seminorm of u itself; requires
    a in (-1,1)).  restricted='sqrt_eps' lifts the region floor to
    y >= sqrt(eps) (the restricted tables of the curved-geometry estimates)
    and skips the eps where that leaves (nearly) no cells."""
    _check_mode(family, mode)
    per_eps = []
    tables = functools.cache(_distance_tables)      # for this call's boxes only
    for s in solutions:
        grid = s.u.grid
        reg = _eps_region(restricted, s.eps, grid.h)
        if reg is None:
            continue
        fld = s.u if mode == "odd_direct_c0" else _quotient(s.u, s.v)
        if mode == "ratio_c1":
            semi = c1alpha_seminorm(fld, alpha, reg, tables)[1]
        else:
            semi = holder_seminorm(fld, alpha, reg, tables)
        sup = float(np.max(np.abs(fld.values[reg.mask(grid)])))
        per_eps.append((s.eps, semi, sup))
    if len(per_eps) < 2:
        raise ValueError("fewer than two admissible eps entries in the sweep")
    semis = np.array([p[1] for p in per_eps])
    lo = float(np.min(semis))
    ratio = float(np.max(semis) / lo) if lo > 0 else (1.0 if np.max(semis) == 0 else math.inf)
    slope = _trend_slope([p[0] for p in per_eps], semis)
    passed = ratio <= TAU and slope <= SLOPE_TOL
    return StabilityReport(alpha=alpha, per_eps=per_eps,
                           uniformity_ratio=ratio, trend_slope=slope,
                           passed=bool(passed), mode=mode, family=family.name,
                           grid_h=solutions[0].u.grid.h, restricted=restricted)


def epsilon_sweep(family: ProblemFamily, eps_list: Sequence[float], alpha: float,
                  mode: str, grid_h: float) -> StabilityReport:
    """:func:`solve_family`, then :func:`measure_sweep` (modes as there); an
    unknown mode is refused before any solve."""
    _check_mode(family, mode)
    return measure_sweep(family, solve_family(family, eps_list, grid_h), alpha, mode)


def admissible_eps(eps_list: Sequence[float], grid_h: float, restricted: str = "none") -> list:
    """The entries of eps_list that :func:`measure_sweep` measures on a grid
    of spacing grid_h (every entry unless restricted='sqrt_eps')."""
    return [e for e in eps_list if _eps_region(restricted, e, grid_h) is not None]


def _eps_step_rule(a: float, eps: float, grid_h: float, m_inv: Optional[Callable]) -> None:
    """Raise ValueError unless rho is finite and positive at the first and last
    cell centre of the n = 1 grid of spacing grid_h, and v = (1-a) m^(-1)(x) chi(y)
    (m_inv None for 1) is at least ``V_GUARD`` at y = h/2, by its lower bound
    (1-a) y min(rho^(-a)) over [0, y], and finite at y = 1, in every column x."""
    fam, y = WeightFamily(a, eps), grid_h / 2.0
    m = _factor(m_inv, -1.0 + (np.arange(_cell_counts(grid_h, 1)[0]) + 0.5) * grid_h)
    with np.errstate(over="ignore", divide="ignore"):
        w = rho(fam, np.array([y, 1.0 - y]))
        low = (1.0 - a) * y * np.min((eps * eps + np.array([0.0, y * y])) ** (-a / 2.0))
        top = (1.0 - a) * chi(fam, 1.0) * np.max(m)
    if not (np.all(np.isfinite(w) & (w > 0.0)) and low * np.min(m) >= V_GUARD
            and math.isfinite(top)):
        raise ValueError(f"rho or v leaves the range of double precision at eps={eps!r}")


def _check_mode(family: ProblemFamily, mode: str) -> None:
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r} (one of {', '.join(SWEEP_MODES)})")
    if mode == "odd_direct_c0" and not (-1.0 < family.a < 1.0):
        raise ValueError("odd_direct_c0 requires a in (-1, 1)")


def _eps_region(restricted: str, eps: float, h: float) -> Optional[Region]:
    """The region measured at eps; None when restricted='sqrt_eps' leaves it
    (nearly) empty."""
    region = Region()
    if restricted != "sqrt_eps":
        return region
    if math.sqrt(eps) > region.y_max - 4 * h:
        return None
    return Region(y_min=math.sqrt(eps))


def _family_trace(family: ProblemFamily, sol: CharacteristicSolution) -> Callable:
    tf = family.trace_factor
    return lambda x, y: v_char(sol, x, y) * (1.0 if tf is None else
                                             _sample(tf, x, y, "trace_factor"))


def _trend_slope(eps_list, semis) -> float:
    """Slope of median-normalized seminorm against log(1/eps), eps > 0 only."""
    pos = [(e, s) for e, s in zip(eps_list, semis) if e > 0]
    if len(pos) < 2:
        return 0.0
    x = np.array([math.log(1.0 / e) for e, _ in pos])
    med = float(np.median([s for _, s in pos])) or 1.0
    y = np.array([s / med for _, s in pos])
    return float(np.polyfit(x, y, 1)[0])

