"""Regularized singular/degenerate weights and their characteristic integrals.

The whole laboratory is built around the two-parameter family of scalar
weights

    rho(y; a, eps) = (eps^2 + y^2)^(a/2),

which degenerates (a > 0) or blows up (a < 0) on the characteristic
hyperplane {y = 0} as eps -> 0.  Everything else in this module is a
functional of rho:

* ``chi``   -- the odd antiderivative of rho^(-1) taken at exponent -a,
               chi(y) = int_0^y (eps^2 + s^2)^(-a/2) ds.  For eps = 0 this is
               y^(1-a)/(1-a) on y > 0, the profile of the model odd solution
               y|y|^(-a).
* ``v_char``-- the variable-coefficient generalization
               (1-a) int_0^y rho^(-a)(s) mu(x,s)^(-1) ds, the positive odd
               comparison solution used as denominator of the boundary
               quotient u/v.
* ``psi``   -- y rho^(-a)(y) / chi(y), scale invariant
               (psi(y; eps) = psi(y/eps; 1)) with limits 1 at 0+ and 1-a at
               infinity; its sup/inf are max/min{1, 1-a}.

All evaluations are closed-form where a closed form exists (a in {0, -2},
eps = 0, plus a Gauss-hypergeometric expression for the general
antiderivative).  Only integrands involving a genuine sampler mu are
integrated numerically: all the points or grid columns of a request in one
vectorised pass of QUADPACK's 21-point Gauss-Kronrod rule under QUADPACK's
own acceptance test, with adaptive ``quad`` for the segments it rejects;
samplers take coordinate arrays (:func:`_sample`).  The functions here are
pure; the one piece of state is the per-column ladder memo of
:class:`CharacteristicSolution` (see there), so concurrent use is safe as
long as user samplers are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import hyp2f1


QUADRATURE_TOL = 1e-10      # relative error accepted for a segment integral


class SingularWeightError(ValueError):
    """Raised when a weight is evaluated exactly at a non-removable singularity."""


class DivergentIntegralError(ValueError):
    """Raised when an antiderivative does not exist (non-integrable singularity)."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance;
    ``value`` and ``abserr`` are the result and error estimate it reached."""

    def __init__(self, message: str, value: float, abserr: float):
        super().__init__(message)
        self.value, self.abserr = value, abserr


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    It is only the fallback for segments the dqk21 pass rejects, so no
    process pays for importing ``scipy.integrate`` until one needs it."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# Switch point beyond which the hypergeometric antiderivative is continued by
# an asymptotic tail series (hyp2f1 loses digits for a < -1 at huge |t|).
_HYP_T_MAX = 1.0e3
_TAIL_TERMS = 12


def _antiderivative_unit(a, t):
    """I_a(t) = int_0^t (1+s^2)^(-a/2) ds for t >= 0, broadcast over a and t.

    Uses the closed hypergeometric form t * 2F1(1/2, a/2; 3/2; -t^2), which is
    machine accurate for t <= 1e3, and a binomial tail expansion of
    (1+s^2)^(-a/2) = s^(-a) (1+s^(-2))^(-a/2) beyond.
    """
    a, t = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t, dtype=float))
    out = np.empty(t.shape)
    near = t <= _HYP_T_MAX
    tn = t[near]
    out[near] = tn * hyp2f1(0.5, a[near] / 2.0, 1.5, -(tn * tn))
    if np.any(~near):
        af = a[~near]
        base = _HYP_T_MAX * hyp2f1(0.5, af / 2.0, 1.5, -(_HYP_T_MAX ** 2))
        out[~near] = base + _antiderivative_tail(af, _HYP_T_MAX, t[~near])
    return out if out.ndim else float(out)


def _antiderivative_tail(a, t0: float, t1):
    """int_{t0}^{t1} (1+s^2)^(-a/2) ds via the binomial series in s^(-2),
    broadcast over a and t1."""
    a, t1 = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(t1, dtype=float))
    total = np.zeros(t1.shape)
    coeff = 1.0
    for k in range(_TAIL_TERMS):
        if k > 0:
            coeff = coeff * ((-a / 2.0 - k + 1) / k)
        p = 1.0 - a - 2 * k
        log = np.abs(p) < 1e-14
        p = np.where(log, 1.0, p)
        total += coeff * np.where(log, np.log(t1 / t0), (t1 ** p - t0 ** p) / p)
    return total


@dataclass(frozen=True)
class WeightFamily:
    """The pair (a, eps) defining rho(y) = (eps^2+y^2)^(a/2)."""

    a: float
    eps: float = 0.0

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")


def rho(family: WeightFamily, y):
    """Evaluate rho(y) = (eps^2+y^2)^(a/2).

    Raises :class:`SingularWeightError` for the non-removable point
    eps = 0, y = 0, a < 0.  For a > 0 the value at that point is 0.
    """
    a, eps = family.a, family.eps
    y = np.asarray(y, dtype=float)
    if eps == 0.0 and a < 0 and np.any(y == 0.0):
        raise SingularWeightError(
            f"rho with a={a} < 0, eps=0 is singular at y=0")
    if a == 0.0:
        out = np.ones_like(y)
    else:
        out = (eps * eps + y * y) ** (a / 2.0)
    return out if out.ndim else float(out)


def chi(family: WeightFamily, y):
    """Signed antiderivative chi(y) = int_0^y (eps^2+s^2)^(-a/2) ds.

    Odd in y.  Requires a < 1 when eps = 0 (else the integral diverges at 0).
    """
    a, eps = family.a, family.eps
    if a >= 1.0 and eps == 0.0:
        raise DivergentIntegralError(
            f"chi diverges for a={a} >= 1 with eps=0")
    y = np.asarray(y, dtype=float)
    sgn = np.sign(y)
    ay = np.abs(y)
    if eps == 0.0:
        out = sgn * ay ** (1.0 - a) / (1.0 - a)
    elif a == 0.0:
        out = y.astype(float)
    elif a == -2.0:
        out = eps * eps * y + y ** 3 / 3.0
    else:
        out = sgn * eps ** (1.0 - a) * _antiderivative_unit(a, ay / eps)
    return out if out.ndim else float(out)


def psi(a: float, eps: float, y):
    """psi(y) = y rho^(-a)(y) / chi(y); scale identity psi_eps(y) = psi_1(y/eps).

    Monotone in y with limits 1 (y -> 0+, eps > 0) and 1-a (y -> infinity),
    hence sup = max{1, 1-a} and inf = min{1, 1-a} over y > 0.  For eps = 0 the
    ratio is identically 1-a.
    """
    if a >= 1.0:
        raise DivergentIntegralError(f"psi requires a < 1, got a={a}")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("psi is defined for y >= 0")
    if eps == 0.0:
        out = np.full_like(y, 1.0 - a)
        return out if out.ndim else float(out)
    t = y / eps
    out = np.ones_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = tp * (1.0 + tp * tp) ** (-a / 2.0) / _antiderivative_unit(a, tp)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# The 21-point Gauss-Kronrod rule of QUADPACK (dqk21), one segment per row
# ---------------------------------------------------------------------------

# Kronrod abscissae on [-1, 1] (positive half, the centre last), the Kronrod
# weights in the same order, and the weights of the embedded 10-point Gauss
# rule, whose abscissae are _XGK[1::2] (Piessens et al., QUADPACK, 1983).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_EPMACH = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny

# dqk21 adds the centre, then the Gauss abscissae (odd positions of _XGK),
# then the Kronrod-only ones
_PAIR_ORDER = np.array([1, 3, 5, 7, 9, 0, 2, 4, 6, 8])


def _seqsum(terms: np.ndarray) -> np.ndarray:
    """Column sums of ``terms``, added strictly top to bottom (unlike
    ``np.sum``, whose pairwise summation reorders the additions)."""
    return np.add.accumulate(terms, axis=0)[-1]


def _gk21_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 21 abscissae of each segment [lo_k, hi_k], shape (nseg, 21): the
    centre, then centre - h x_j for j = 0..9, then centre + h x_j."""
    centr = 0.5 * (lo + hi)[:, None]
    absc = 0.5 * (hi - lo)[:, None] * _XGK[None, :10]
    return np.concatenate([centr, centr - absc, centr + absc], axis=1)


def _gk21(fvals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's dqk21 on each row: (result, abserr, resabs) per segment.

    ``fvals`` holds the integrand at ``_gk21_nodes(lo, hi)``.  Every sum runs
    in dqk21's order (``_seqsum``), so a row equals the first pass of
    ``quad`` on that segment up to the rounding of the integrand values."""
    f = fvals.T
    fc = f[0]
    o = _PAIR_ORDER
    pair = (f[1:11] + f[11:])[o]
    resg = _seqsum(_WG[:, None] * pair[:5])
    resk = _seqsum(np.vstack([_WGK[10] * fc, _WGK[o, None] * pair]))
    resabs = _seqsum(np.vstack([np.abs(_WGK[10] * fc),
                                _WGK[o, None] * (np.abs(f[1:11]) + np.abs(f[11:]))[o]]))
    dev = np.abs(f - resk * 0.5)
    resasc = _seqsum(np.vstack([_WGK[10] * dev[0], _WGK[:10, None] * (dev[1:11] + dev[11:])]))
    hlgth = 0.5 * (hi - lo)
    result = resk * hlgth
    resabs = resabs * np.abs(hlgth)
    resasc = resasc * np.abs(hlgth)
    abserr = np.abs((resk - resg) * hlgth)
    scale = (resasc != 0.0) & (abserr != 0.0)
    ratio = np.where(scale, 200.0 * abserr / np.where(scale, resasc, 1.0), 1.0)
    abserr = np.where(scale, resasc * np.minimum(1.0, ratio ** 1.5), abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                      np.maximum(_EPMACH * 50.0 * resabs, abserr), abserr)
    return result, abserr, resabs


def _qags_accepts(result, abserr, resabs, tol: float) -> np.ndarray:
    """QUADPACK qags's test after its first dqk21 pass (epsabs = 0)."""
    return (abserr <= tol * np.abs(result)) & (abserr != resabs) | (abserr == 0.0)


# ---------------------------------------------------------------------------
# Characteristic odd solution with a variable coefficient
# ---------------------------------------------------------------------------

def _coords(x) -> tuple:
    """The coordinates of column positions x (a tuple of them for n = 2)."""
    return x if isinstance(x, tuple) else (x,)


def _positions(x, shape: tuple) -> np.ndarray:
    """Column positions x broadcast to ``shape``, one row (x_1, ..., x_n) each."""
    return np.stack([np.broadcast_to(np.asarray(c, dtype=float), shape).ravel()
                     for c in _coords(x)], axis=1)


def _x_of(coords):
    """x as samplers and the memo take it: the coordinate, a tuple for n = 2."""
    return coords[0] if len(coords) == 1 else tuple(coords)


class SamplerError(ValueError):
    """Raised when a user sampler cannot take coordinate arrays."""


def _sample(g: Callable, x, y, role: str = "mu_inverse", lead: tuple = ()) -> np.ndarray:
    """g(x, y) on arrays of positions x (a tuple of them for n = 2) and
    ordinates y, broadcast to ``lead + y.shape``: a vector sampler (F)
    returns its components along the leading axis ``lead``, as one array or
    a ragged tuple.  A sampler that cannot take arrays raises
    :class:`SamplerError` naming it and its role."""
    y = np.asarray(y, dtype=float)
    shape = tuple(lead) + y.shape
    try:
        return np.broadcast_to(_stacked(g(x, y), y.shape), shape)
    except SamplerError:
        raise                   # a sampler called inside g failed; it is named already
    except (TypeError, ValueError) as exc:
        raise SamplerError(f"{role} sampler {getattr(g, '__qualname__', repr(g))!r} must "
                           f"broadcast over arrays of x and y and return a scalar or an "
                           f"array of shape {shape}") from exc


def _stacked(val, shape: tuple) -> np.ndarray:
    """A sampler's value as a float array, a tuple or list of components
    stacked along a new leading axis after broadcasting each to ``shape``."""
    if not isinstance(val, (list, tuple)):
        return np.asarray(val, dtype=float)
    parts = [_stacked(v, shape) for v in val]
    common = np.broadcast_shapes(shape, *(p.shape for p in parts))
    return np.stack([np.broadcast_to(p, common) for p in parts])


class _Ladder(NamedTuple):
    """Consecutive segments of one column, integrated in one pass: the edges
    e_0 < ... < e_m, the segment integrals ``seg[k]`` over [e_k, e_k+1] and
    their running sums ``cum[k]`` over [e_0, e_k+1]."""

    edges: np.ndarray
    seg: np.ndarray
    cum: np.ndarray


class _Column:
    """The memo of one column x: its ladders, and the single segments asked
    for one at a time (``(y0, y1) -> value``)."""

    __slots__ = ("ladders", "points")

    def __init__(self):
        self.ladders: list = []
        self.points: dict = {}

    def find(self, edges: np.ndarray) -> Optional[Tuple[_Ladder, int]]:
        """A stored ladder with ``lad.edges[i:i + len(edges)] == edges``, and i."""
        for lad in self.ladders:
            i = int(np.searchsorted(lad.edges, edges[0]))
            if np.array_equal(lad.edges[i:i + len(edges)], edges):
                return lad, i
        return None

    def cumulative(self, y0: float, y1: float) -> Optional[float]:
        """The integral over [y0, y1] from a stored ladder from y0 with edge y1."""
        for lad in self.ladders:
            e, j = lad.edges, int(np.searchsorted(lad.edges, y1))
            if e[0] == y0 and 0 < j < len(e) and e[j] == y1:
                return float(lad.cum[j - 1])
        return None


@dataclass(frozen=True)
class CharacteristicSolution:
    """The odd comparison solution v(x, y) = (1-a) int_0^y rho^(-a)(s) mu(x,s)^(-1) ds.

    ``mu_inverse(x, s)`` samples mu^(-1); None means mu == 1, in which case
    v = (1-a) chi exactly.  mu must be even in s so that v is odd; evaluation
    enforces oddness by integrating over |y| and restoring the sign.

    Samplers must broadcast over ndarrays of ordinates ``s`` and of column
    positions ``x`` (a tuple of them for n = 2), since one pass samples all
    the columns of a request; a scalar return is broadcast.  A sampler that
    cannot take arrays raises ``ValueError`` naming it.

    Every value of v and every y-resistance of the rho weight with mu present
    is a sum of segment integrals.  :meth:`segment_integrals` integrates the
    segments of any number of columns by one vectorised 21-point
    Gauss-Kronrod pass (QUADPACK's dqk21, one sampler call on an (nseg, 21)
    array) and accepts a segment under QUADPACK qags's own test after it:
    abserr <= ``QUADRATURE_TOL`` |result| and abserr != resabs, or abserr == 0.
    Only a rejected segment goes on to the adaptive scalar ``quad``, so an
    accepted value is the one ``quad`` returns, up to the rounding of the
    integrand, and ``QUADRATURE_TOL`` keeps its meaning.

    Segment integrals are memoized per solution object, one entry per
    column x (a float, or a tuple of floats for n = 2), holding ladders: the
    runs of consecutive segments integrated together, as arrays of edges,
    segment integrals and their cumulative sums.  A run that a stored ladder
    holds is a slice of it, and v at a ladder edge (a ladder from y0 = 0) is
    its cumulative sum, so the face resistances, the cell-centre columns and
    the top-face Dirichlet traces of one eps step share one pass.  Any other
    run becomes a ladder of its own, never a sum or difference of another
    ladder's segments.  Single segments off the ladders (points of v) share
    one dqk21 pass per request and are kept in the entry's ``points``.
    The memo assumes ``mu_inverse`` is a deterministic function of (x, s);
    the closed form for mu == 1 bypasses it.  Two threads that miss on the
    same column both compute and store the same values, so concurrent use
    only repeats work.
    """

    family: WeightFamily
    mu_inverse: Optional[Callable] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family.a >= 1.0:
            raise DivergentIntegralError(
                f"characteristic solution requires a < 1, got a={self.family.a}")

    def _column(self, x) -> _Column:
        return self._memo.setdefault(x, _Column())

    def mu_at(self, x, y) -> np.ndarray:
        """mu = 1 / mu_inverse at the points (x, y) in one call (ones without
        one): the mu of the operator's A = mu I."""
        if self.mu_inverse is None:
            return np.ones(np.shape(y))
        return 1.0 / _sample(self.mu_inverse, x, y)

    def segment_integral(self, x, y0, y1):
        """int_{y0}^{y1} rho^(-a)(s) mu^(-1)(x, s) ds for single segments, all
        broadcast, 0 <= y0 <= y1.  A segment kept in its column's points, or
        from the start of a stored ladder to one of its edges, is read; the
        others share one dqk21 pass (see the class docstring)."""
        shape = np.broadcast_shapes(*map(np.shape, _coords(x)), np.shape(y0), np.shape(y1))
        y0, y1 = (np.broadcast_to(np.asarray(y, dtype=float), shape).ravel() for y in (y0, y1))
        if self.mu_inverse is None:
            return (chi(self.family, y1) - chi(self.family, y0)).reshape(shape)[()]
        X = _positions(x, shape)
        cols = [self._column(_x_of(row)) for row in X.tolist()]
        segs = list(zip(y0.tolist(), y1.tolist()))
        vals = [c.points[s] if s in c.points else c.cumulative(*s) for c, s in zip(cols, segs)]
        miss = [k for k, val in enumerate(vals) if val is None]
        if miss:
            for k, val in zip(miss, self._integrate(X[miss], y0[miss], y1[miss]).tolist()):
                vals[k] = val
        for col, seg, val in zip(cols, segs, vals):
            col.points[seg] = val
        return np.array(vals).reshape(shape)[()]

    def segment_integrals(self, x, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """int_{y0_k}^{y1_k} rho^(-a)(s) mu^(-1)(x_k, s) ds, x broadcast against
        y0: each run of consecutive segments of one column is a slice of a
        stored ladder, or a new ladder; new ones share one dqk21 pass."""
        y0 = np.asarray(y0, dtype=float)
        y1 = np.asarray(y1, dtype=float)
        if self.mu_inverse is None:
            return chi(self.family, y1) - chi(self.family, y0)
        X = _positions(x, y0.shape)
        new = np.any(X[1:] != X[:-1], axis=1) | (y0[1:] != y1[:-1])
        lo = np.flatnonzero(np.r_[len(y0) > 0, new])          # run starts; none if empty
        hi = np.r_[lo[1:], len(y0)]
        runs = [np.concatenate((y0[i:i + 1], y1[i:j])) for i, j in zip(lo, hi)]
        out = np.empty(len(y0))
        for i, j, (lad, k) in zip(lo, hi, self._ladders(X[lo], runs)):
            out[i:j] = lad.seg[k:k + j - i]
        return out

    def _ladders(self, X: np.ndarray, runs: list) -> list:
        """(ladder, i) per run of edges in column X[k]: a stored ladder holding
        them from index i, or a new one and 0, all from one dqk21 pass."""
        cols = [self._column(_x_of(row)) for row in X.tolist()]
        out = [col.find(edges) for col, edges in zip(cols, runs)]
        new = [k for k, hit in enumerate(out) if hit is None]
        if new:
            counts = [len(runs[k]) - 1 for k in new]
            seg = self._integrate(np.repeat(X[new], counts, axis=0),
                                  np.concatenate([runs[k][:-1] for k in new]),
                                  np.concatenate([runs[k][1:] for k in new]))
            for k, part in zip(new, np.split(seg, np.cumsum(counts)[:-1])):
                out[k] = (_Ladder(runs[k], part, np.cumsum(part)), 0)
                cols[k].ladders.append(out[k][0])
        return out

    def _integrate(self, X: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """One dqk21 pass, segment k in column X[k]; ``quad`` for rejected ones."""
        result, ok = self._dqk21(X, y0, y1)
        for k in np.flatnonzero(~ok):
            result[k] = self._quad(_x_of(X[k].tolist()), float(y0[k]), float(y1[k]))
        return result

    def _dqk21(self, X: np.ndarray, y0: np.ndarray, y1: np.ndarray):
        """int rho^(-a) mu^(-1) ds on each [y0_k, y1_k] of column X[k]; qags's verdicts."""
        a, eps = self.family.a, self.family.eps
        b = 1.0 - a
        # eps = 0, a > 0: substitute u = s^(1-a)/(1-a) on segments from 0 to
        # remove the endpoint singularity; the integrand becomes mu^(-1)(x, s(u))
        sub = (y0 == 0.0) & (eps == 0.0 and a > 0.0)
        hi = np.where(sub, y1 ** b / b, y1)
        s = _gk21_nodes(y0, hi)
        if sub.any():
            s[sub] = (b * s[sub]) ** (1.0 / b)
        wgt = np.where(sub[:, None], 1.0, (eps * eps + s * s) ** (-a / 2.0))
        mu_inv = _sample(self.mu_inverse, _x_of(list(X.T[..., None])), s)
        result, abserr, resabs = _gk21(wgt * mu_inv, y0, hi)
        return result, _qags_accepts(result, abserr, resabs, QUADRATURE_TOL)

    def _quad(self, x, y0: float, y1: float) -> float:
        """int_{y0}^{y1} rho^(-a) mu^(-1)(x, s) ds by adaptive ``quad``."""
        a, eps = self.family.a, self.family.eps
        g = self.mu_inverse
        tol = QUADRATURE_TOL
        if eps == 0.0 and a > 0.0 and y0 == 0.0:
            # the substitution of _integrate
            b = 1.0 - a
            u1 = y1 ** b / b
            val, err = quad(lambda u: g(x, (b * u) ** (1.0 / b)),
                            0.0, u1, epsabs=0.0, epsrel=tol, limit=200)
        else:
            val, err = quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * g(x, s),
                            y0, y1, epsabs=0.0, epsrel=tol, limit=200)
        if err > 10 * tol * max(abs(val), 1e-300) and err > 1e-13:
            raise QuadratureError(
                f"segment integral [{y0}, {y1}] achieved error {err:.2e} "
                f"above tolerance {tol:.2e}", val, err)
        return val


def v_char(sol: CharacteristicSolution, x, y):
    """The characteristic odd solution at the points (x, y), x (a tuple of
    arrays for n = 2) and y broadcast; a float for scalars."""
    y = np.asarray(y, dtype=float)
    if sol.mu_inverse is None:
        return (1.0 - sol.family.a) * chi(sol.family, y)
    return (np.sign(y) * (1.0 - sol.family.a) * sol.segment_integral(x, 0.0, np.abs(y)))[()]


def v_char_profile(sol: CharacteristicSolution, x, ys: Sequence[float]) -> np.ndarray:
    """v(x, ys), shape S + (len(ys),), in each column of x (shape S) on an
    increasing grid of positive ordinates: cumulative sums of the ladders
    with edges 0, ys (prefixes of stored ones, or new ones of one pass)."""
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(ys) <= 0) or np.any(ys <= 0):
        raise ValueError("ys must be strictly increasing and positive")
    a = sol.family.a
    shape = np.shape(_coords(x)[0]) + ys.shape
    if sol.mu_inverse is None:
        return np.broadcast_to((1.0 - a) * chi(sol.family, ys), shape).copy()
    X = _positions(x, shape[:-1])
    lads = sol._ladders(X, [np.concatenate(([0.0], ys))] * len(X))  # ladders from 0 start there
    return (1.0 - a) * np.array([lad.cum[:len(ys)] for lad, _ in lads]).reshape(shape)
