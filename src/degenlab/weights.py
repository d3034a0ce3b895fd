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
* ``omega`` -- rho * ((1-a) chi)^2, the super-degenerate weight of the
               quotient equation (~ y^2 for eps > 0, |y|^(2-a) for eps = 0).
* ``psi``   -- y rho^(-a)(y) / chi(y), scale invariant
               (psi(y; eps) = psi(y/eps; 1)) with limits 1 at 0+ and 1-a at
               infinity; its sup/inf are max/min{1, 1-a}.
* ``xi``    -- first moment ratio int rho^(-a) s ds / int rho^(-a) ds.

All evaluations are closed-form where a closed form exists (a in {0, -2},
eps = 0, plus a Gauss-hypergeometric expression for the general
antiderivative); adaptive Gauss-Kronrod quadrature is used only for
integrands involving a genuine sampler mu.  The functions here are pure; the
one piece of state is the segment-integral memo of
:class:`CharacteristicSolution` (see there), so concurrent use is safe as long
as user samplers are reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import hyp2f1


class SingularWeightError(ValueError):
    """Raised when a weight is evaluated exactly at a non-removable singularity."""


class DivergentIntegralError(ValueError):
    """Raised when an antiderivative does not exist (non-integrable singularity)."""


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


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
    """The pair (a, eps) defining rho(y) = (eps^2+y^2)^(a/2).

    ``normalized`` applies the factor min{eps^(-a), 1} (a >= 0) resp.
    max{eps^(-a), 1} (a <= 0); for eps in [0, 1] the factor is identically 1,
    so the default leaves it off (nothing in this laboratory runs eps > 1).
    """

    a: float
    eps: float = 0.0
    normalized: bool = False

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    @property
    def normalization(self) -> float:
        if not self.normalized or self.a == 0.0:
            return 1.0
        if self.eps == 0.0:
            return 1.0
        s = self.eps ** (-self.a)
        return min(s, 1.0) if self.a > 0 else max(s, 1.0)


def rho(family: WeightFamily, y):
    """Evaluate rho(y) = (eps^2+y^2)^(a/2), times the normalization if on.

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
        out = (eps * eps + y * y) ** (a / 2.0) * family.normalization
    return out if out.ndim else float(out)


def chi(family: WeightFamily, y):
    """Signed antiderivative chi(y) = int_0^y (eps^2+s^2)^(-a/2) ds.

    Odd in y.  Requires a < 1 when eps = 0 (else the integral diverges at 0).
    The normalization factor of the family is deliberately not applied: chi
    is the resistance integral of the raw weight.
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


def omega(family: WeightFamily, y):
    """Auxiliary super-degenerate weight rho(y) * ((1-a) chi(y))^2.

    Even in y; behaves like y^2 at the hyperplane for eps > 0 and like
    |y|^(2-a) for eps = 0.
    """
    c = (1.0 - family.a) * chi(family, y)
    return rho(family, y) * c * c


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


def xi(a: float, t):
    """First-moment ratio xi(t) = int_0^t (1+s^2)^(-a/2) s ds / int_0^t (1+s^2)^(-a/2) ds.

    The numerator has the closed form [(1+t^2)^(1-a/2) - 1]/(2-a); the ratio
    is bounded by t and vanishes like t/2 as t -> 0.
    """
    if a >= 1.0:
        raise DivergentIntegralError(f"xi requires a < 1, got a={a}")
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    num = ((1.0 + tp * tp) ** (1.0 - a / 2.0) - 1.0) / (2.0 - a)
    out[pos] = num / _antiderivative_unit(a, tp)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Characteristic odd solution with a variable coefficient
# ---------------------------------------------------------------------------

MuSampler = Callable[[object, float], float]


@dataclass(frozen=True)
class CharacteristicSolution:
    """The odd comparison solution v(x, y) = (1-a) int_0^y rho^(-a)(s) mu(x,s)^(-1) ds.

    ``mu_inverse(x, s)`` samples mu^(-1); None means mu == 1, in which case
    v = (1-a) chi exactly.  ``mu_inverse_dx`` optionally samples the
    x-derivative of mu^(-1) (used to differentiate v under the integral
    sign); when absent a central difference of the sampler is used inside
    the integrand.  mu must be even in s so that v is odd; evaluation
    enforces oddness by integrating over |y| and restoring the sign.

    Every value of v and every y-resistance of the rho weight with mu present
    is a sum of :meth:`segment_integral` values, which are memoized per
    solution object keyed by ``(x, y0, y1)``: the face resistances, the
    cell-centre columns and the Dirichlet traces of one eps step share one
    ``quad`` call per segment.  x must therefore be hashable (a float, or a
    tuple for n = 2, as the assembly passes it).  The memo assumes
    ``mu_inverse`` is a deterministic function of (x, s); calls with an
    ``integrand_factor`` and the closed form for mu == 1 bypass it.  Two
    threads that miss on the same key both compute it and store the same
    float, so concurrent use only repeats work.
    """

    family: WeightFamily
    mu_inverse: Optional[MuSampler] = None
    mu_inverse_dx: Optional[MuSampler] = None
    quadrature_tol: float = 1e-10
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family.a >= 1.0:
            raise DivergentIntegralError(
                f"characteristic solution requires a < 1, got a={self.family.a}")

    # -- scalar evaluations --------------------------------------------------

    def __call__(self, x, y: float) -> float:
        return v_char(self, x, y)

    def segment_integral(self, x, y0: float, y1: float,
                         integrand_factor: Optional[MuSampler] = None) -> float:
        """int_{y0}^{y1} rho^(-a)(s) g(x, s) ds with g = mu^(-1) (default) or a
        supplied factor; 0 <= y0 <= y1 assumed.  Default-integrand values are
        memoized (see the class docstring)."""
        if integrand_factor is not None:
            return self._integrate(integrand_factor, x, y0, y1)
        if self.mu_inverse is None:
            return chi(self.family, y1) - chi(self.family, y0)
        key = (x, y0, y1)
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = self._integrate(self.mu_inverse, x, y0, y1)
        return val

    def _integrate(self, g: MuSampler, x, y0: float, y1: float) -> float:
        a, eps = self.family.a, self.family.eps
        tol = self.quadrature_tol
        if eps == 0.0 and a > 0.0 and y0 == 0.0:
            # substitute u = s^(1-a)/(1-a) to remove the endpoint singularity
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
                f"above tolerance {tol:.2e}")
        return val


def v_char(sol: CharacteristicSolution, x, y: float) -> float:
    """Evaluate the characteristic odd solution at (x, y)."""
    a = sol.family.a
    if y == 0.0:
        return 0.0
    sgn = 1.0 if y > 0 else -1.0
    if sol.mu_inverse is None:
        return (1.0 - a) * chi(sol.family, y)
    return sgn * (1.0 - a) * sol.segment_integral(x, 0.0, abs(y))


def v_char_profile(sol: CharacteristicSolution, x, ys: Sequence[float]) -> np.ndarray:
    """Evaluate v(x, .) on an increasing grid of positive ordinates.

    Uses cumulative segment integrals so a whole grid column costs one pass.
    """
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(ys) <= 0) or np.any(ys <= 0):
        raise ValueError("ys must be strictly increasing and positive")
    a = sol.family.a
    if sol.mu_inverse is None:
        return (1.0 - a) * chi(sol.family, ys)
    out = np.empty_like(ys)
    acc = sol.segment_integral(x, 0.0, ys[0])
    out[0] = acc
    for j in range(1, len(ys)):
        acc += sol.segment_integral(x, ys[j - 1], ys[j])
        out[j] = acc
    return (1.0 - a) * out


def v_char_grad_x(sol: CharacteristicSolution, x, y: float, fd_step: float = 1e-6) -> float:
    """d/dx of v at (x, y), by differentiation under the integral sign.

    Integrates rho^(-a)(s) d/dx[mu^(-1)](x, s); the derivative sampler is used
    when provided, otherwise a central difference of mu^(-1) in x (still under
    the integral, never a difference of v itself).
    """
    if sol.mu_inverse is None:
        return 0.0
    a = sol.family.a
    if y == 0.0:
        return 0.0
    sgn = 1.0 if y > 0 else -1.0
    if sol.mu_inverse_dx is not None:
        dmu = sol.mu_inverse_dx
    else:
        mu = sol.mu_inverse

        def dmu(xx, s):
            return (mu(xx + fd_step, s) - mu(xx - fd_step, s)) / (2.0 * fd_step)

    return sgn * (1.0 - a) * sol.segment_integral(x, 0.0, abs(y), integrand_factor=dmu)


def gamma_ratio(a: float, eps: float, mu_inverse: Optional[MuSampler], x, y: float,
                quadrature_tol: float = 1e-10) -> float:
    """The bounded quotient v(x, y) / ((1-a) chi(y)) for y > 0.

    Equals the rho^(-a)-average of mu^(-1) over (0, y); tends to mu^(-1)(x, 0)
    as y -> 0+ and is identically 1 for mu == 1.
    """
    if y <= 0:
        raise ValueError("gamma_ratio requires y > 0")
    if mu_inverse is None:
        return 1.0
    fam = WeightFamily(a, eps)
    sol = CharacteristicSolution(fam, mu_inverse, quadrature_tol=quadrature_tol)
    denom = (1.0 - a) * chi(fam, y)
    if denom < 1e-280:
        return float(mu_inverse(x, 0.0))
    return v_char(sol, x, y) / denom
