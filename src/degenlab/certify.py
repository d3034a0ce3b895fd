"""Error-controlled global minimization and the certificates it produces.

The certification strategy is dense sampling on nested uniform grids with an
empirical Lipschitz safety margin: on a grid of spacing h the certified lower
bound is

    (min sample) - L * h/2 * SAFETY,

where L is the largest observed local slope and SAFETY = 2.  Refinement
(doubling the grid, reusing nothing but the running bound) continues until
the pass/fail decision is forced or the evaluation budget is exhausted, in
which case the certificate is 'undecided'.  This is numerical certification,
not interval arithmetic: the method string of every report says so.

Reports are deterministic: fixed refinement schedule, no randomness, and a
running maximum over refinement levels so a larger budget can only improve
the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Tuple

import numpy as np

from .potentials import (
    gamma_small,
    gamma_v_bound,
    phi_big,
    phi_limit_infinity,
    phi_limit_zero,
    v_limit,
)

SAFETY = 2.0
MIN_BUDGET = 1000       # fewest samples certify_infimum accepts

PHI_PROBE_T = 1e6       # _phi_core_domain probes Phi_a on [1/PHI_PROBE_T, PHI_PROBE_T]
# the least a whose t^(1-a) stays finite there
PHI_A_MIN = 1.0 - math.log10(np.finfo(float).max) / math.log10(PHI_PROBE_T)

GAMMA_RECTANGLE = ((-43.3272, -2.96767), (1.0, 5.1))
V_INEQUALITY_INTERVAL = (math.sqrt(2.0), math.sqrt(6.0))


@dataclass(frozen=True)
class CertificationReport:
    target_id: str
    domain: tuple
    certified_infimum_lower_bound: float
    threshold: float
    samples_used: int
    lipschitz_estimate: float
    passed: bool
    method: str
    status: str                      # 'decided' | 'undecided'
    min_sample: float
    argmin: tuple

    def record(self) -> str:
        """Line-oriented text record consumed by the CLI."""
        dom = "x".join(f"[{lo:.12g},{hi:.12g}]" for lo, hi in self._domain2d())
        return (f"{self.target_id} domain={dom} "
                f"bound={self.certified_infimum_lower_bound:.12g} "
                f"threshold={self.threshold:.12g} "
                f"pass={'yes' if self.passed else 'no'} status={self.status}")

    def _domain2d(self):
        if self.domain and isinstance(self.domain[0], tuple):
            return self.domain
        return (self.domain,)


def certify_infimum(f: Callable, domain, threshold: float, budget: int = 200_000,
                    target_id: str = "infimum", initial: int = 129) -> CertificationReport:
    """Certify inf f > threshold on an interval (lo, hi) or rectangle ((..),(..)).

    ``f`` takes one ndarray per axis (all of the grid's shape) and must return
    an array of that shape; a target that does not broadcast raises.
    The report *fails decided* as soon as a sample value drops to or below the
    threshold (a witness), *passes decided* once the certified lower bound
    clears it, and is 'undecided' if the budget runs out in between.
    """
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be >= {MIN_BUDGET}, got {budget}")
    if isinstance(domain[0], (tuple, list)):
        return _certify_nd(f, tuple(tuple(d) for d in domain), threshold,
                           budget, target_id, initial)
    return _certify_nd(f, (tuple(domain),), threshold, budget, target_id, initial)


def _axis_cell_slope(vals: np.ndarray, d: int, h: float) -> np.ndarray:
    """Per-cell slope bound along axis d: the max of the cell's own edge
    slopes and its axis neighbors' (guards against interior dips)."""
    s = np.abs(np.diff(vals, axis=d)) / h
    # collapse the remaining node axes to cell axes by pairwise max
    for e in range(vals.ndim):
        if e != d:
            sl0 = [slice(None)] * vals.ndim
            sl1 = [slice(None)] * vals.ndim
            sl0[e] = slice(None, -1)
            sl1[e] = slice(1, None)
            s = np.maximum(s[tuple(sl0)], s[tuple(sl1)])
    # pool with axis-d neighbors
    pad0 = [slice(None)] * s.ndim
    pad1 = [slice(None)] * s.ndim
    pooled = s.copy()
    pad0[d] = slice(None, -1)
    pad1[d] = slice(1, None)
    pooled[tuple(pad1)] = np.maximum(pooled[tuple(pad1)], s[tuple(pad0)])
    pooled[tuple(pad0)] = np.maximum(pooled[tuple(pad0)], s[tuple(pad1)])
    return pooled


def _certify_nd(f, domain, threshold, budget, target_id, initial):
    ndim = len(domain)
    counts = [initial] * ndim
    used = 0
    best_bound = -math.inf
    best_L = math.nan
    min_sample = math.inf
    argmin: tuple = ()
    status, passed = "undecided", False
    while True:
        n_eval = int(np.prod(counts))
        if used + n_eval > budget and used > 0:
            break
        axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(domain, counts)]
        grids = np.meshgrid(*axes, indexing="ij")
        vals = np.asarray(f(*grids), dtype=float)
        if vals.shape != grids[0].shape:
            raise ValueError(f"{target_id}: target returned shape {vals.shape} on a "
                             f"grid of shape {grids[0].shape}; it must broadcast")
        used += n_eval
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{target_id}: non-finite sample in domain")
        k = int(np.argmin(vals))
        idx = np.unravel_index(k, vals.shape)
        min_sample = float(vals[idx])
        argmin = tuple(float(ax[i]) for ax, i in zip(axes, idx))
        # per-cell bound: min corner value minus the local slope margin
        corner_min = vals
        for d in range(ndim):
            sl0 = [slice(None)] * vals.ndim
            sl1 = [slice(None)] * vals.ndim
            sl0[d] = slice(None, -1)
            sl1[d] = slice(1, None)
            corner_min = np.minimum(corner_min[tuple(sl0)], corner_min[tuple(sl1)])
        margin = np.zeros_like(corner_min)
        best_L = 0.0
        for d in range(ndim):
            h = (domain[d][1] - domain[d][0]) / (counts[d] - 1)
            Ld = _axis_cell_slope(vals, d, h)
            best_L = max(best_L, float(np.max(Ld)))
            margin = margin + Ld * (h / 2.0) * SAFETY
        best_bound = max(best_bound, float(np.min(corner_min - margin)))
        if min_sample <= threshold:
            status, passed = "decided", False
            break
        if best_bound > threshold:
            status, passed = "decided", True
            break
        counts = [2 * (c - 1) + 1 for c in counts]
    return CertificationReport(
        target_id=target_id,
        domain=domain if ndim > 1 else domain[0],
        certified_infimum_lower_bound=best_bound,
        threshold=threshold,
        samples_used=used,
        lipschitz_estimate=best_L,
        passed=passed,
        method=f"nested uniform grids, empirical Lipschitz margin (safety {SAFETY:g}); "
               "numerical certificate, not interval arithmetic",
        status=status,
        min_sample=min_sample,
        argmin=argmin,
    )


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def _phi_core_domain(a: float) -> Tuple[float, float, str]:
    """Truncate the t-domain of Phi_a using its analytic limits.

    Probe Phi_a on a log grid, locate the last sign change of the finite
    differences, and keep a 5% guard band past it; outside the core the
    function is (empirically) monotone toward its limits, so the tail infimum
    is min(endpoint value, limit)."""
    tp = np.geomspace(1.0 / PHI_PROBE_T, PHI_PROBE_T, 4001)
    vals = phi_big(a, tp)
    d = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    sig = np.where(np.abs(d) < 1e-12 * scale, 0.0, np.sign(d))
    nz = sig[sig != 0.0]
    note = "monotone tails toward limits 2 and (2-a)(4-a)/4"
    if nz.size == 0:
        return 1e-3, 10.0, "constant within noise; " + note
    changes = np.nonzero((sig[:-1] != 0) & (sig[1:] != 0) & (sig[:-1] != sig[1:]))[0]
    if changes.size == 0:
        return 1e-3, 100.0, note
    t_last = tp[changes[-1] + 1]
    lo = min(1e-3, t_last / 2.0)
    hi = min(PHI_PROBE_T, 1.05 * t_last * 10.0)
    return lo, max(hi, 10.0), note


def _phi_exponent_rule(a: float) -> None:
    """Raise ValueError unless PHI_A_MIN <= a < 1, without evaluating Phi_a."""
    if not PHI_A_MIN <= a < 1.0:
        raise ValueError(f"phi bound requires {PHI_A_MIN!r} <= a < 1 (below, t^(1-a) "
                         f"overflows at t = {PHI_PROBE_T:g}), got a={a}")


def verify_phi_bound(a_samples: Sequence[float], budget: int = 200_000):
    """Certify inf_{t>0} Phi_a(t) > -1/4 for each a in a_samples (each a
    must pass :func:`_phi_exponent_rule`)."""
    reports = []
    for a in a_samples:
        _phi_exponent_rule(a)
        lo, hi, note = _phi_core_domain(a)
        core = certify_infimum(lambda t: phi_big(a, t), (lo, hi), -0.25,
                               budget=budget, target_id=f"phi_bound[a={a:g}]")
        # fold in the tail information: on (0, lo] and [hi, inf) the function
        # is monotone toward its limits, so their infima are endpoint/limit.
        tails = min(phi_limit_zero(), float(phi_big(a, lo)),
                    phi_limit_infinity(a), float(phi_big(a, hi)))
        bound = min(core.certified_infimum_lower_bound, tails)
        decided = core.status == "decided"
        passed = decided and core.passed and tails > -0.25
        reports.append(replace(core, certified_infimum_lower_bound=bound, passed=passed,
                               method=core.method + "; tails: " + note,
                               min_sample=min(core.min_sample, tails)))
    return reports


def verify_v_inequality(budget: int = 100_000) -> CertificationReport:
    """Certify v(t) - (1 - 2/t^2) > 0 on [sqrt 2, sqrt 6]."""
    lo, hi = V_INEQUALITY_INTERVAL

    def margin(t):
        return v_limit(t) - (1.0 - 2.0 / (t * t))

    rep = certify_infimum(margin, (lo, hi), 0.0, budget=budget,
                          target_id="v_above_one_minus_two_over_t2")
    return rep


def v_minimum() -> Tuple[float, float]:
    """(argmin, min) of v over t > 0, by deterministic grid + golden refinement.

    v blows up at 0+ and tends to 1 at infinity, changing monotonicity once,
    so the scan interval [0.5, 12] brackets the minimum."""
    ts = np.linspace(0.5, 12.0, 4097)
    vals = v_limit(ts)
    k = int(np.argmin(vals))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = v_limit(c), v_limit(d)
    for _ in range(200):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = v_limit(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = v_limit(d)
    t_star = (a + b) / 2.0
    return t_star, v_limit(t_star)


def verify_gamma_rectangle(budget: int = 400_000, form: str = "v_bound") -> CertificationReport:
    """Certify positivity over the rectangle (a, t) in [-43.3272, -2.96767] x [1, 5.1].

    form='v_bound' targets the v-based lower-bound expression
    2a^2(v(t)-1/2)^2 + a(2-a)/4 + a^2/(2t^2) + (0.999/4)(-a+t^2)^2/t^4;
    form='exact' targets the underlying certificate built on w_deep, of which
    the v-form is a pointwise lower bound.  The v-form certification fails
    decided (the expression dips below 0 in the interior of the rectangle,
    near a ~ -18, t ~ 2.4) while the exact form passes; both are reported so
    the discrepancy is visible in the artifacts.
    """
    if form == "v_bound":
        g, tid = gamma_v_bound, "gamma_rectangle_v_bound"
    elif form == "exact":
        g, tid = gamma_small, "gamma_rectangle_exact"
    else:
        raise ValueError(f"unknown form {form!r}")
    return certify_infimum(g, GAMMA_RECTANGLE, 0.0, budget=budget,
                           target_id=tid, initial=201)
