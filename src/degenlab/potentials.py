"""Potentials of the flat quadratic forms and the deep-exponent certificate functions.

Conjugating the weighted Dirichlet energy by the square root of the weight
turns int w |grad u|^2 into a flat-gradient quadratic form

    Q(v) = int |grad v|^2 + int V v^2 + int_{arc} W v^2,   v = w^(1/2) u,

with potentials V, W determined by log-derivatives of w.  This module
evaluates those potentials in closed form for the three weight kinds used by
the spectral solvers ('rho', 'omega_inverse', 'omega'), plus the three
functions that certify coercivity of the omega-inverse form:

* ``phi_big``     -- Phi_a(t) with V_omega_inv(y) = Phi_a(y/eps) / y^2;
                     limits 2 at t -> 0+ and (2-a)(4-a)/4 at t -> infinity.
* ``gamma_small`` -- the rescaled positivity certificate for a < 0 built on
                     w_deep; ``gamma_v_bound`` is its pointwise lower bound
                     obtained by replacing w_deep with the limit profile v.
* ``v_limit``     -- v(t) = exp(t^2/2) / (t int_0^t exp(s^2/2) ds), evaluated
                     in closed form as 1 / (sqrt2 t D(t/sqrt2)) with D Dawson's
                     integral (Abramowitz-Stegun 7.1.17), finite for all t > 0.

All certificate functions broadcast over arrays of a and t.
"""

from __future__ import annotations

import math

import numpy as np
# Unused here, but perfbench/layers.py wraps degenlab.potentials.quad by name.
from scipy.integrate import quad  # noqa: F401
from scipy.special import dawsn

from .weights import (
    DivergentIntegralError,
    WeightFamily,
    _antiderivative_unit,
    chi,
)


def potentials(kind: str, a: float, eps: float, y):
    """Return the pair (V(y), W(y)) for the requested weight kind at y > 0.

    kinds:
      'rho'           V = a[(a-2)y^2 + 2 eps^2] / (4 (eps^2+y^2)^2),
                      W = -a y^2 / (2 (eps^2+y^2)).
      'omega_inverse' V = (1/4)[(log w)']^2 - (1/2)(log w)'',
                      W = +(1/2)(log w)' y,     w = omega.
      'omega'         V = same as 'rho' (the two coincide),
                      W = -(1/2)(log w)' y.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("potentials are evaluated at y > 0 only")
    d2 = eps * eps + y * y
    v_rho = a * ((a - 2.0) * y * y + 2.0 * eps * eps) / (4.0 * d2 * d2)
    if kind == "rho":
        V = v_rho
        W = -a * y * y / (2.0 * d2)
    elif kind in ("omega_inverse", "omega"):
        if a >= 1.0:
            raise DivergentIntegralError("omega potentials require a < 1")
        if eps == 0.0:
            logw1 = (2.0 - a) / y
            logw2 = -(2.0 - a) / (y * y)
        else:
            fam = WeightFamily(a, eps)
            c = chi(fam, y)
            rinv = d2 ** (-a / 2.0)            # rho^(-a)(y)
            rinv_p = -a * y * d2 ** (-a / 2.0 - 1.0)
            logw1 = a * y / d2 + 2.0 * rinv / c
            logw2 = (a * (eps * eps - y * y) / (d2 * d2)
                     + 2.0 * (rinv_p * c - rinv * rinv) / (c * c))
        if kind == "omega_inverse":
            V = 0.25 * logw1 * logw1 - 0.5 * logw2
            W = 0.5 * logw1 * y
        else:
            V = v_rho
            W = -0.5 * logw1 * y
    else:
        raise ValueError(f"unknown potential kind {kind!r}")
    if V.ndim:
        return V, W
    return float(V), float(W)


def phi_limit_zero() -> float:
    """Phi_a(t) -> 2 as t -> 0+, for every a < 1."""
    return 2.0


def phi_limit_infinity(a: float) -> float:
    """Phi_a(t) -> (2-a)(4-a)/4 as t -> infinity."""
    return (2.0 - a) * (4.0 - a) / 4.0


def phi_big(a: float, t):
    """Phi_a(t) = [sqrt2 psi_1(t) + a t^2/(sqrt2 (1+t^2))]^2
                 + a t^2 [(2-a) t^2 - 2] / (4 (1+t^2)^2).

    Relates to the omega-inverse potential by V(y) = Phi_a(y/eps) / y^2; its
    infimum over t > 0 stays above -1/4 for every a < 1, which is what makes
    the conjugated form an equivalent norm uniformly in eps.
    """
    if a >= 1.0:
        raise DivergentIntegralError("phi_big requires a < 1")
    t = np.asarray(t, dtype=float)
    out = np.full_like(t, 2.0)
    pos = t > 0
    tp = t[pos]
    t2 = tp * tp
    psi1 = tp * (1.0 + t2) ** (-a / 2.0) / _antiderivative_unit(a, tp)
    bracket = math.sqrt(2.0) * psi1 + a * t2 / (math.sqrt(2.0) * (1.0 + t2))
    out[pos] = bracket * bracket + a * t2 * ((2.0 - a) * t2 - 2.0) / (4.0 * (1.0 + t2) ** 2)
    return out if out.ndim else float(out)


def w_deep(a, t):
    """w_a(t) = (1 + t^2/(-a))^(1-a/2) / (t int_0^t (1+s^2/(-a))^(-a/2) ds), a < 0.

    Dominates v_limit pointwise and converges to it as a -> -infinity.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a >= 0.0):
        raise ValueError("w_deep requires a < 0")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("w_deep requires t > 0")
    r = np.sqrt(-a)
    integ = r * _antiderivative_unit(a, t / r)
    out = (1.0 + t * t / (-a)) ** (1.0 - a / 2.0) / (t * integ)
    return out if out.ndim else float(out)


def gamma_small(a, t):
    """The deep-exponent certificate gamma_a(t) built on w_deep (a < 0):

       2 a^2 (w_a(t) - 1/2)^2 + a(2-a)/4 + a^2/(2 t^2) + (0.999/4)(-a+t^2)^2/t^4.

    Positivity of gamma_a is equivalent to Phi_a(t) + 1/4 exceeding the small
    reserved margin (0.001/4)(-a+t^2)^2/t^4 * t^4/(1+t^2)^2 after rescaling
    t -> t/sqrt(-a).
    """
    return _gamma_terms(a, t, w_deep(a, t))


def gamma_v_bound(a, t):
    """Lower bound for gamma_small obtained by replacing w_deep with v_limit.

    Valid because w_a >= v > 1/2; note the bound is strictly weaker than
    gamma_small and is *not* positive on all of the moderate-a range (see the
    certification module).
    """
    return _gamma_terms(a, t, v_limit(t))


def _gamma_terms(a, t, w):
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    t2 = t * t
    out = (2.0 * a * a * (w - 0.5) ** 2
           + a * (2.0 - a) / 4.0
           + a * a / (2.0 * t2)
           + (0.999 / 4.0) * (-a + t2) ** 2 / (t2 * t2))
    return out if out.ndim else float(out)


def v_limit(t):
    """v(t) = exp(t^2/2) / (t int_0^t exp(s^2/2) ds) = 1 / (sqrt2 t D(t/sqrt2)).

    D(x) = exp(-x^2) int_0^x exp(s^2) ds is Dawson's integral, so the closed
    form needs no exponential of t^2 and stays finite for every t > 0 whose
    product t D(t/sqrt2) does not underflow; v = 1 - 1/t^2 - 2/t^4 + O(t^-6).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("v_limit requires t > 0")
    out = 1.0 / (math.sqrt(2.0) * t * dawsn(t / math.sqrt(2.0)))
    return out if out.ndim else float(out)


def v_limit_deriv(t):
    """v'(t), through the exact first-order identity v' = ((t^2-1)/t) v - t v^2."""
    v = v_limit(t)
    return (t * t - 1.0) / t * v - t * v * v
