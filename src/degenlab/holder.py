"""Discrete Hölder seminorms, exponent fitting, and the eps-stability harness.

The regularity statements under test say: the C^{0,alpha} (or C^{1,alpha})
norm of the quotient w = u/v on an interior region is bounded by data norms
with a constant that does not depend on the regularization parameter eps.
The constant itself is not computable, so uniformity is operationalized as a
two-sided check on the seminorm table over an eps-sweep:

* uniformity_ratio = max/min seminorm over the sweep must stay <= tau (3), and
* trend_slope, the fitted slope of the median-normalized seminorm against
  log(1/eps) over the positive entries, must stay <= slope_tol (0.1); a
  genuine blow-up as eps -> 0 shows up as a positive slope.

Pair sampling for the seminorms is deterministic: all center pairs within
distance 0.25 (strided down to the pair budget when necessary) plus a
stratified sample of far pairs.  The sample depends only on the selected
cells, so an eps-sweep draws it, with |z_i - z_j|^alpha, once per region (a
dict local to the sweep call) and each eps step costs one gather and one max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .assembly import DiscreteField, OperatorSpec, RhoWeight, assemble, solve_linear
from .geometry import HalfGrid, build_half_grid
from .ratio import _quotient_field, _v_on_grid
from .weights import (CharacteristicSolution, WeightFamily, _sample, omega as omega_weight,
                      v_char, v_char_profile)

NEAR_PAIR_RADIUS = 0.25
DEFAULT_TAU = 3.0
DEFAULT_SLOPE_TOL = 0.1
SWEEP_MODES = ("ratio_c0", "ratio_c1", "odd_direct_c0")


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


class EmptyRegionError(ValueError):
    pass


class SweepAbort(RuntimeError):
    """A per-eps solve failed; carries the rows computed so far."""

    def __init__(self, msg: str, partial: list):
        super().__init__(msg)
        self.partial = partial


def _pairs(points: np.ndarray, budget: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic pair sample: all near pairs (strided to ~4/5 budget) plus
    a stratified all-vs-all sample of far pairs (~1/5 budget)."""
    npts = len(points)
    if npts < 2:
        raise EmptyRegionError("region contains fewer than two cells")
    tree = cKDTree(points)
    near = tree.query_pairs(NEAR_PAIR_RADIUS, output_type="ndarray")
    near = near[np.lexsort((near[:, 1], near[:, 0]))]
    near_budget = max(1, (4 * budget) // 5)
    if len(near) > near_budget:
        stride = int(math.ceil(len(near) / near_budget))
        near = near[::stride]
    far_budget = max(1, budget - len(near))
    k = max(2, int(math.sqrt(2.0 * far_budget)))
    stride = max(1, int(math.ceil(npts / k)))
    sub = np.arange(0, npts, stride)
    ii, jj = np.meshgrid(sub, sub, indexing="ij")
    sel = ii < jj
    far = np.stack([ii[sel], jj[sel]], axis=1)
    if len(far):
        d = np.linalg.norm(points[far[:, 0]] - points[far[:, 1]], axis=1)
        far = far[d > NEAR_PAIR_RADIUS]
    if len(near) and len(far):
        allp = np.vstack([near, far])
    elif len(near):
        allp = near
    else:
        allp = far
    return allp[:, 0], allp[:, 1]


def holder_seminorm(field: DiscreteField, alpha: float, region: Region,
                    pair_budget: int = 200_000, *, pairs: Optional[dict] = None) -> float:
    """max over sampled center pairs of |u(z1) - u(z2)| / |z1 - z2|^alpha.

    ``pairs`` (a dict, empty at first) keeps the pair samples across calls on
    one grid, so each later call on the same cells is one gather and one max."""
    mask = region.mask(field.grid)
    if not np.any(mask):
        raise EmptyRegionError("region selects no cells")
    sample = _pair_sample(pairs, "c0", field.grid.centers, mask, alpha, pair_budget)
    return _holder_of_values(sample, field.values[mask])


def _pair_sample(cache: Optional[dict], kind: str, points: np.ndarray, sel: np.ndarray,
                 alpha: float, budget: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, |z_i - z_j|^alpha) over the pair sample of points[sel], drawn
    once per selection of cells in ``cache`` (a fresh one when None)."""
    cache = {} if cache is None else cache
    key = (kind, alpha, budget, sel.tobytes())
    if key not in cache:
        pts = points[sel]
        i, j = _pairs(pts, budget)
        cache[key] = (i, j, np.linalg.norm(pts[i] - pts[j], axis=1) ** alpha)
    return cache[key]


def _holder_of_values(sample, vals: np.ndarray) -> float:
    i, j, d_alpha = sample
    num = np.abs(vals[i] - vals[j])
    return float(np.max(num / d_alpha)) if len(d_alpha) else 0.0


def c1alpha_seminorm(field: DiscreteField, alpha: float, region: Region,
                     pair_budget: int = 200_000, *,
                     pairs: Optional[dict] = None) -> Tuple[float, float]:
    """(sup |grad u|, max over components of the gradient's alpha-seminorm).

    Centered differences at cells with both neighbors; the vertical derivative
    on the bottom layer uses the parity ghost below the plane.  Both
    components share one pair sample; ``pairs`` as in :func:`holder_seminorm`."""
    g = field.grid
    if g.n != 1:
        raise NotImplementedError("c1alpha_seminorm implemented for n=1 grids")
    lat = field.lattice()
    h = g.h
    nx, ny = lat.shape
    gx = np.full_like(lat, np.nan)
    gy = np.full_like(lat, np.nan)
    gx[1:-1, :] = (lat[2:, :] - lat[:-2, :]) / (2 * h)
    gy[:, 1:-1] = (lat[:, 2:] - lat[:, :-2]) / (2 * h)
    if field.parity == "odd":
        gy[:, 0] = (lat[:, 1] + lat[:, 0]) / (2 * h)
    elif field.parity == "even":
        gy[:, 0] = (lat[:, 1] - lat[:, 0]) / (2 * h)
    mask = region.mask(g).reshape(nx, ny)
    ok = mask & np.isfinite(gx) & np.isfinite(gy)
    if not np.any(ok):
        raise EmptyRegionError("region too thin for gradient stencils")
    xs = np.broadcast_to((-1.0 + (np.arange(nx) + 0.5) * h)[:, None], (nx, ny))
    ys = np.broadcast_to(((np.arange(ny) + 0.5) * h)[None, :], (nx, ny))
    points = np.stack([xs.ravel(), ys.ravel()], axis=1)
    sample = _pair_sample(pairs, "c1", points, ok.ravel(), alpha, pair_budget // 2)
    sup_grad = float(np.max(np.hypot(gx[ok], gy[ok])))
    semi = max(_holder_of_values(sample, gx[ok]), _holder_of_values(sample, gy[ok]))
    return sup_grad, semi


@dataclass(frozen=True)
class ExponentEstimate:
    alpha_hat: float          # capped at 1
    alpha_raw: float          # least-squares slope as fitted
    smooth: bool
    oscillations: tuple


def exponent_estimate(field: DiscreteField, center_on_sigma,
                      radii: Sequence[float] = (0.25, 0.125, 0.0625, 0.03125),
                      noise_floor: float = 1e-12) -> ExponentEstimate:
    """Fit log osc(r) ~ alpha log r over dyadic half-annuli around a plane point.

    osc(r) = max - min of the field on {r/2 < |z - z0| <= r}; a flat field
    (all oscillations below the noise floor) sets the smooth flag."""
    g = field.grid
    z0 = np.asarray(center_on_sigma, dtype=float)
    d = np.linalg.norm(g.centers - z0[None, :], axis=1)
    oscs = []
    for r in radii:
        sel = (d > r / 2.0) & (d <= r)
        if not np.any(sel):
            raise EmptyRegionError(f"no cells in the half-annulus at r={r}")
        vals = field.values[sel]
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if field.parity == "odd":
            # the half-annulus touches the plane, where an odd field's trace is 0
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        oscs.append(hi - lo)
    oscs_t = tuple(oscs)
    if max(oscs) < noise_floor:
        return ExponentEstimate(alpha_hat=math.inf, alpha_raw=math.inf,
                                smooth=True, oscillations=oscs_t)
    lr = np.log(np.asarray(radii))
    lo = np.log(np.maximum(oscs, 1e-300))
    slope = float(np.polyfit(lr, lo, 1)[0])
    return ExponentEstimate(alpha_hat=min(slope, 1.0), alpha_raw=slope,
                            smooth=False, oscillations=oscs_t)


# ---------------------------------------------------------------------------
# eps-sweep harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemFamily:
    """A fixed problem shape swept over eps.

    The outer Dirichlet trace is v_eps(x, y) * trace_factor(x, y), so the
    quotient w has eps-uniform boundary values by construction; forcing f and
    field F are eps-independent samplers (their quotient norms are recorded
    per eps).  mu_inverse == None means the identity tensor.  Every sampler
    (f, F, trace_factor and mu_inverse) takes arrays of positions x and
    ordinates y and broadcasts over them, F returning its two components
    along a leading axis; see :class:`OperatorSpec`."""

    a: float
    f: Optional[Callable] = None
    F: Optional[Callable] = None
    trace_factor: Optional[Callable] = None
    mu_inverse: Optional[Callable] = None
    name: str = "family"
    p1: float = 6.0

    def spec(self) -> OperatorSpec:
        if self.mu_inverse is None:
            return OperatorSpec()
        inv = self.mu_inverse
        return OperatorSpec(mu=lambda x, y: 1.0 / inv(x, y))


@dataclass
class StabilityReport:
    alpha: float
    region: Region
    per_eps: list                     # (eps, seminorm, sup_norm, data_norms dict)
    uniformity_ratio: float
    trend_slope: float
    passed: bool
    mode: str
    tau: float
    slope_tol: float
    family: str
    grid_h: float
    restricted: str = "none"

    def verdict(self) -> str:
        lines = [f"family={self.family} mode={self.mode} alpha={self.alpha:g} "
                 f"h={self.grid_h:g} region=|x|<={self.region.x_halfwidth:g},"
                 f"y<={self.region.y_max:g}"]
        for eps, s, sup, dn in self.per_eps:
            lines.append(f"  eps={eps:<6g} seminorm={s:.6g} sup={sup:.6g}")
        lines.append(f"  uniformity_ratio={self.uniformity_ratio:.4g} (tau={self.tau:g})  "
                     f"trend_slope={self.trend_slope:.4g} (tol={self.slope_tol:g})  "
                     f"=> {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def epsilon_sweep(family: ProblemFamily, eps_list: Sequence[float], alpha: float,
                  mode: str = "ratio_c0", grid_h: float = 1.0 / 64,
                  region: Optional[Region] = None, tau: float = DEFAULT_TAU,
                  slope_tol: float = DEFAULT_SLOPE_TOL,
                  pair_budget: int = 200_000,
                  restricted: str = "none",
                  solver_tol: float = 1e-10) -> StabilityReport:
    """Solve the odd family per eps, quotient/measure per mode, assemble the report.

    modes: 'ratio_c0' (alpha-seminorm of w = u/v), 'ratio_c1' (gradient
    seminorm of w), 'odd_direct_c0' (alpha-seminorm of u itself; requires
    a in (-1,1)).  restricted='sqrt_eps' lifts the region floor to
    y >= sqrt(eps) (the restricted tables of the curved-geometry estimates)."""
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}")
    if mode == "odd_direct_c0" and not (-1.0 < family.a < 1.0):
        raise ValueError("odd_direct_c0 requires a in (-1, 1)")
    if len(eps_list) < 2:
        raise ValueError("eps_list must contain at least two entries")
    region = region or Region()
    grid = build_half_grid(1, "half_rectangle", grid_h)
    pairs: dict = {}        # pair samples of this sweep, one per selection of cells
    fv = (None if family.f is None      # f does not depend on eps
          else _sample(family.f, grid.centers[:, 0], grid.centers[:, 1], "f"))
    ys = (np.arange(grid.ny) + 0.5) * grid.h
    side_x = -1.0 + np.array([0, grid.nx]) * grid.h      # as the face midpoints hold it
    per_eps = []
    for eps in eps_list:
        if restricted == "sqrt_eps" and math.sqrt(eps) > region.y_max - 4 * grid_h:
            continue        # restricted region {y >= sqrt(eps)} is (near) empty
        weight = RhoWeight(WeightFamily(family.a, eps), family.mu_inverse)
        sol = weight.sol        # one solution (and segment memo) per eps
        op = assemble(grid, weight, family.spec(), parity="odd")
        # The trace reads v from the column ladders of sol: on the top faces from the
        # resistance ladders, on the side faces x = -1, 1 from one pass over both.
        v_char_profile(sol, side_x, ys)
        trace = _family_trace(family, sol)
        rhs = op.rhs(f=family.f, F=family.F, trace=trace)
        rep = solve_linear(op, rhs, tol=solver_tol)
        if not rep.converged:
            raise SweepAbort(
                f"solver failed at eps={eps}: residual {rep.relative_residual:.2e}",
                partial=per_eps)
        reg = region
        if restricted == "sqrt_eps":
            reg = Region(region.x_halfwidth, region.y_max,
                         y_min=max(region.y_min, math.sqrt(eps)))
        v = _v_on_grid(sol, grid)       # the quotient and the data norms share it
        fld = rep.field if mode == "odd_direct_c0" else _quotient_field(rep.field, v)
        if mode == "ratio_c1":
            sup_g, semi = c1alpha_seminorm(fld, alpha, reg, pair_budget, pairs=pairs)
        else:
            semi = holder_seminorm(fld, alpha, reg, pair_budget, pairs=pairs)
        sup = float(np.max(np.abs(fld.values[reg.mask(grid)])))
        norms = _data_norms(family, sol, grid, v, fv)
        if mode == "ratio_c1":
            norms["sup_grad"] = sup_g
        per_eps.append((eps, semi, sup, norms))
    if len(per_eps) < 2:
        raise ValueError("fewer than two admissible eps entries in the sweep")
    semis = np.array([p[1] for p in per_eps])
    lo = float(np.min(semis))
    ratio = float(np.max(semis) / lo) if lo > 0 else (1.0 if np.max(semis) == 0 else math.inf)
    slope = _trend_slope(eps_list, semis)
    passed = ratio <= tau and slope <= slope_tol
    return StabilityReport(alpha=alpha, region=region, per_eps=per_eps,
                           uniformity_ratio=ratio, trend_slope=slope,
                           passed=bool(passed), mode=mode, tau=tau,
                           slope_tol=slope_tol, family=family.name,
                           grid_h=grid_h, restricted=restricted)


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


def _data_norms(family: ProblemFamily, sol: CharacteristicSolution, grid: HalfGrid,
                v: np.ndarray, fv: Optional[np.ndarray]) -> dict:
    """Quotient-space data norms: ||f/v||_{L^p1(omega dz)} and friends, from
    v and f (None when the family has none) at the cell centres."""
    out = {}
    if fv is not None:
        om = omega_weight(sol.family, grid.centers[:, grid.n])
        voln = grid.h ** (grid.n + 1)
        out["fbar_Lp1_omega"] = float(
            (np.sum(om * np.abs(fv / v) ** family.p1) * voln) ** (1.0 / family.p1))
    return out
