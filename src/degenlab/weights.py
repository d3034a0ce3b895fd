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
               (1-a) m(x)^(-1) int_0^y rho^(-a)(s) n(s)^(-1) ds for
               mu = m(x) n(y), the positive odd comparison solution used as
               denominator of the boundary quotient u/v.
* ``psi``   -- y rho^(-a)(y) / chi(y), scale invariant
               (psi(y; eps) = psi(y/eps; 1)) with limits 1 at 0+ and 1-a at
               infinity; its sup/inf are max/min{1, 1-a}.

All evaluations are closed-form where a closed form exists (a in {0, -2},
eps = 0, plus a Gauss-hypergeometric expression for the general
antiderivative).  mu^(-1) is a product m^(-1)(x) n^(-1)(y)
(:class:`MuInverse`; ``MuInverse()`` is mu == 1), so only the 1-D integral
N of rho^(-a) n^(-1) in v = (1-a) m^(-1)(x) N(y) is integrated numerically,
and only when n^(-1) is given: the segments of one
ladder of ordinates, shared by every column, in one vectorised pass of
QUADPACK's 21-point Gauss-Kronrod rule under QUADPACK's own acceptance
test, with adaptive ``quad`` for the segments it rejects; samplers take
coordinate arrays (:func:`_sample`).  The functions here are pure; the one
piece of state is the last ladder a :class:`CharacteristicSolution` computed
(see there), so concurrent use is safe as long as user samplers are
reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

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
        ua, which = np.unique(af, return_inverse=True)      # I_a(1e3) once per distinct a
        base = _HYP_T_MAX * hyp2f1(0.5, ua / 2.0, 1.5, -(_HYP_T_MAX ** 2))
        out[~near] = base[which] + _antiderivative_tail(af, _HYP_T_MAX, t[~near])
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
        unit = _antiderivative_unit(a, ay / eps)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.float64(eps) ** (1.0 - a)
            out = sgn * scale * unit
            if np.isinf(scale):     # eps^(1-a) alone; chi ~ eps^(-a) y at y << eps need not
                out = np.where(ay == 0.0, 0.0, sgn * np.float64(eps) ** -a * (eps * unit))
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

# the Kronrod and Gauss weights in _gk21_nodes' order (no Gauss node at the centre)
_WK21 = np.concatenate([_WGK[10:], _WGK[:10], _WGK[:10]])
_WG21 = np.zeros(21)
_WG21[2:11:2] = _WG21[12::2] = _WG


def _gk21_nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 21 abscissae of each segment [lo_k, hi_k], shape (nseg, 21): the
    centre, then centre - h x_j for j = 0..9, then centre + h x_j."""
    centr = 0.5 * (lo + hi)[:, None]
    absc = 0.5 * (hi - lo)[:, None] * _XGK[None, :10]
    return np.concatenate([centr, centr - absc, centr + absc], axis=1)


def _gk21(fvals: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's dqk21 on each row: (result, abserr, resabs) per segment.

    ``fvals`` holds the integrand at ``_gk21_nodes(lo, hi)``.  Its four sums
    are weighted sums of each row, so a row is the first pass of ``quad`` on
    that segment up to rounding."""
    resk = np.einsum("sk,k->s", fvals, _WK21)
    resg = np.einsum("sk,k->s", fvals, _WG21)
    resabs = np.einsum("sk,k->s", np.abs(fvals), _WK21)
    resasc = np.einsum("sk,k->s", np.abs(fvals - 0.5 * resk[:, None]), _WK21)
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


class SamplerError(ValueError):
    """Raised when a user sampler cannot take coordinate arrays."""


def _sample(g: Callable, x, y, role: str = "mu_inverse", lead: tuple = ()) -> np.ndarray:
    """g(x, y) on arrays of positions x (a tuple of them for n = 2) and
    ordinates y, broadcast to ``lead + y.shape``: a vector sampler (F)
    returns its components along the leading axis ``lead``, as one array or
    a ragged tuple.  A sampler that cannot take arrays raises
    :class:`SamplerError` naming it and its role."""
    y = np.asarray(y, dtype=float)
    return _call(g, (x, y), y.shape, role, lead)


def _call(g: Callable, args: tuple, shape: tuple, role: str, lead: tuple) -> np.ndarray:
    """g(*args) as a float array of shape ``lead + shape`` (see :func:`_sample`)."""
    try:
        return np.broadcast_to(_stacked(g(*args), shape), tuple(lead) + shape)
    except SamplerError:
        raise                   # a sampler called inside g failed; it is named already
    except (TypeError, ValueError) as exc:
        raise SamplerError(f"{role} sampler {getattr(g, '__qualname__', repr(g))!r} must "
                           f"broadcast over coordinate arrays and return a scalar or an "
                           f"array of shape {tuple(lead) + shape}") from exc


def _stacked(val, shape: tuple) -> np.ndarray:
    """A sampler's value as a float array, a tuple or list of components
    stacked along a new leading axis after broadcasting each to ``shape``."""
    if not isinstance(val, (list, tuple)):
        return np.asarray(val, dtype=float)
    parts = [_stacked(v, shape) for v in val]
    common = np.broadcast_shapes(shape, *(p.shape for p in parts))
    return np.stack([np.broadcast_to(p, common) for p in parts])


def _factor(g: Optional[Callable], z):
    """A factor of mu^(-1) at the coordinate arrays z (a tuple of them for
    positions with n = 2), an array of their shape; 1.0 for None."""
    if g is None:
        return 1.0
    return _call(g, (z,), np.broadcast_shapes(*map(np.shape, _coords(z))), "mu_inverse", ())


class MuInverse(NamedTuple):
    """mu^(-1)(x, y) = m^(-1)(x) n^(-1)(y), the coefficient of A = mu I as
    its two factors, either of them None for 1: ``MuInverse()`` is mu == 1.

    ``m_inv`` takes column positions x (a tuple of arrays for n = 2) and
    ``n_inv`` ordinates y, on which it must be even; both broadcast over
    arrays.  Called on (x, y), the pair is their product."""

    m_inv: Optional[Callable] = None
    n_inv: Optional[Callable] = None

    def __call__(self, x, y):
        out = 1.0 if self.m_inv is None else self.m_inv(x)
        return out if self.n_inv is None else out * self.n_inv(y)


@dataclass(frozen=True)
class CharacteristicSolution:
    """The odd comparison solution v(x, y) = (1-a) m^(-1)(x) N(y),
    N(y) = int_0^y rho^(-a)(s) n^(-1)(s) ds, for mu^(-1) = m^(-1)(x) n^(-1)(y).

    ``mu_inverse`` is that pair (:class:`MuInverse`; a plain pair is taken
    as one), or None for mu == 1, which is stored as ``MuInverse()``: v has
    one rule, (1-a) (m^(-1)(x) N(y)), whatever the spelling.  n must be even
    in s so that v is odd; evaluation enforces oddness by integrating over
    |y| and restoring the sign.  Every y-resistance of the rho weight is
    m^(-1)(x) (N(y1) - N(y0)).

    N is chi, in closed form, when n^(-1) is None.  Otherwise N at a set of
    ordinates, shared by every column, is the cumulative sum of the segments
    between them from 0, integrated by one vectorised 21-point Gauss-Kronrod
    pass (QUADPACK's dqk21, one call of n^(-1) on an (nseg, 21) array).  A
    segment is accepted under QUADPACK qags's own test after the pass:
    abserr <= ``QUADRATURE_TOL`` |result| and abserr != resabs, or
    abserr == 0.  Only a rejected one goes on to the adaptive scalar
    ``quad``: the pass accepts where ``quad`` stops after its first 21
    evaluations, with the value ``quad`` returns up to rounding.

    One ladder of N is kept (``_memo``), and N at its ordinates is read.  A
    grid's y-resistances keep the half-spacing ladder of its cell centres,
    which holds every cell centre and face ordinate, so v at the cell
    centres, the quotient weight and the Dirichlet traces of one eps step
    read the same N, and compute it only off the ladder.  The memo assumes
    n^(-1) is a deterministic function of s; concurrent use only repeats work.
    """

    family: WeightFamily
    mu_inverse: Optional[MuInverse] = None
    _memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family.a >= 1.0:
            raise DivergentIntegralError(
                f"characteristic solution requires a < 1, got a={self.family.a}")
        mi = MuInverse() if self.mu_inverse is None else self.mu_inverse
        if callable(mi) and not isinstance(mi, MuInverse):
            raise TypeError("mu_inverse must be a pair (m_inv(x), n_inv(y)), mu^(-1) "
                            "= m^(-1)(x) n^(-1)(y), not an (x, y) sampler")
        object.__setattr__(self, "mu_inverse", MuInverse(*mi))

    def m_inv_at(self, x):
        """m^(-1) at the column positions x (1.0 without it)."""
        return _factor(self.mu_inverse.m_inv, x)

    def n_inv_at(self, y):
        """n^(-1) at the ordinates y (1.0 without it)."""
        return _factor(self.mu_inverse.n_inv, np.asarray(y, dtype=float))

    def mu_at(self, x, y) -> np.ndarray:
        """mu = 1 / (m^(-1)(x) n^(-1)(y)) at the points (x, y), one call of
        each factor: the mu of the operator's A = mu I."""
        shape = np.broadcast_shapes(*map(np.shape, _coords(x)), np.shape(y))
        return 1.0 / np.broadcast_to(self.m_inv_at(x) * self.n_inv_at(y), shape)

    def segment_integral(self, x, y0, y1):
        """int_{y0}^{y1} rho^(-a)(s) mu^(-1)(x, s) ds = m^(-1)(x) (N(y1) - N(y0)),
        all broadcast, 0 <= y0 <= y1; N as :meth:`integral` gives it."""
        shape = np.broadcast_shapes(*map(np.shape, _coords(x)), np.shape(y0), np.shape(y1))
        y0, y1 = (np.broadcast_to(np.asarray(y, dtype=float), shape) for y in (y0, y1))
        n0, n1 = self.integral(np.stack([y0, y1]))
        return (self.m_inv_at(x) * (n1 - n0))[()]

    def integral(self, y, keep: bool = False) -> np.ndarray:
        """N at ordinates y >= 0 (an array): read on the kept ladder (0 at 0),
        and at the other distinct ordinates, in increasing order, computed as
        the class docstring says.  With ``keep``, unless every y is read, all
        of them are computed and kept as the ladder."""
        y = np.asarray(y, dtype=float)
        edges, N = self._memo or (np.zeros(1), np.zeros(1))
        i = np.minimum(np.searchsorted(edges, y), len(edges) - 1)
        got, hit = N[i], edges[i] == y
        if not hit.all():
            new, inverse = np.unique(y[~hit | keep], return_inverse=True)
            if self.mu_inverse.n_inv is None:
                N = chi(self.family, new)
            else:
                N = np.cumsum(self._integrate(np.r_[0.0, new[:-1]], new))
            got[~hit | keep] = N[inverse]
            if keep:
                self._memo[:] = [np.r_[0.0, new], np.r_[0.0, N]]
        return got

    def _integrate(self, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
        """int rho^(-a) n^(-1) ds on each [y0_k, y1_k]: one dqk21 pass, and
        ``quad`` for the segments it rejects."""
        result, ok = self._dqk21(y0, y1)
        for k in np.flatnonzero(~ok):
            result[k] = self._quad(float(y0[k]), float(y1[k]))
        return result

    def _dqk21(self, y0: np.ndarray, y1: np.ndarray):
        """int rho^(-a) n^(-1) ds on each [y0_k, y1_k]; qags's verdicts."""
        a, eps = self.family.a, self.family.eps
        b = 1.0 - a
        # eps = 0, a > 0: substitute u = s^(1-a)/(1-a) on segments from 0 to
        # remove the endpoint singularity; the integrand becomes n^(-1)(s(u))
        sub = (y0 == 0.0) & (eps == 0.0 and a > 0.0)
        hi = np.where(sub, y1 ** b / b, y1)
        s = _gk21_nodes(y0, hi)
        if sub.any():
            s[sub] = (b * s[sub]) ** (1.0 / b)
        wgt = np.where(sub[:, None], 1.0, (eps * eps + s * s) ** (-a / 2.0))
        result, abserr, resabs = _gk21(wgt * self.n_inv_at(s), y0, hi)
        return result, _qags_accepts(result, abserr, resabs, QUADRATURE_TOL)

    def _quad(self, y0: float, y1: float) -> float:
        """int_{y0}^{y1} rho^(-a) n^(-1)(s) ds by adaptive ``quad``."""
        a, eps = self.family.a, self.family.eps
        g = self.mu_inverse.n_inv
        tol = QUADRATURE_TOL
        if eps == 0.0 and a > 0.0 and y0 == 0.0:
            # the substitution of _dqk21
            b = 1.0 - a
            u1 = y1 ** b / b
            val, err = quad(lambda u: g((b * u) ** (1.0 / b)),
                            0.0, u1, epsabs=0.0, epsrel=tol, limit=200)
        else:
            val, err = quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * g(s),
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
    return (np.sign(y) * (1.0 - sol.family.a) * sol.segment_integral(x, 0.0, np.abs(y)))[()]


def v_char_profile(sol: CharacteristicSolution, x, ys: Sequence[float]) -> np.ndarray:
    """v(x, ys), shape S + (len(ys),), in each column of x (shape S) on an
    increasing grid of positive ordinates: (1-a) m^(-1)(x) N(ys), N kept as
    the solution's ladder (:meth:`CharacteristicSolution.integral`)."""
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(ys) <= 0) or np.any(ys <= 0):
        raise ValueError("ys must be strictly increasing and positive")
    shape = np.shape(_coords(x)[0]) + ys.shape
    m = np.asarray(sol.m_inv_at(x))[..., None]
    return np.broadcast_to((1.0 - sol.family.a) * (m * sol.integral(ys, keep=True)), shape).copy()
