"""Quadratic-form potentials and the certificate functions Phi, gamma, v."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import degenlab as dl
from degenlab.potentials import w_deep
from degenlab.weights import _antiderivative_unit


def test_rho_potentials_closed_form():
    V, W = dl.potentials(0.5, 0.0, 1.0)
    assert V == pytest.approx(0.5 * (0.5 - 2.0) / 4.0)       # a(a-2)/(4 y^2)
    assert W == pytest.approx(-0.25)
    V0, W0 = dl.potentials(0.0, 0.7, 0.3)
    assert V0 == 0.0 and W0 == 0.0


def test_rho_potentials_from_log_derivatives():
    # oracle: finite differences of L = log rho; the rho-conjugation yields
    # V = L''/2 + (L')^2/4 and W = -L' y / 2
    a, eps, y = -1.3, 0.4, 0.6
    h = 1e-5

    def logr(t):
        return (a / 2.0) * math.log(eps * eps + t * t)

    l1 = (logr(y + h) - logr(y - h)) / (2 * h)
    l2 = (logr(y + h) - 2 * logr(y) + logr(y - h)) / (h * h)
    V, W = dl.potentials(a, eps, y)
    assert V == pytest.approx(0.25 * l1 * l1 + 0.5 * l2, abs=1e-5)
    assert W == pytest.approx(-0.5 * l1 * y, abs=1e-8)


def _omega_inverse_potentials(a, eps, y):
    """(V, W) of the conjugation by omega^(-1/2), omega = rho^a chi^2:
    V = (1/4)[(log omega)']^2 - (1/2)(log omega)'', W = (1/2)(log omega)' y.
    The oracle of phi_big, V = Phi_a(y/eps) / y^2."""
    d2 = eps * eps + y * y
    c = dl.chi(dl.WeightFamily(a, eps), y)
    rinv = d2 ** (-a / 2.0)                     # rho^(-a), the derivative of chi
    rinv_p = -a * y * d2 ** (-a / 2.0 - 1.0)
    logw1 = a * y / d2 + 2.0 * rinv / c
    logw2 = a * (eps * eps - y * y) / (d2 * d2) + 2.0 * (rinv_p * c - rinv * rinv) / (c * c)
    return 0.25 * logw1 * logw1 - 0.5 * logw2, 0.5 * logw1 * y


def test_omega_inverse_potentials_at_eps_zero():
    a, y = 0.5, 0.7
    V, W = _omega_inverse_potentials(a, 0.0, y)
    assert V == pytest.approx((2 - a) * (4 - a) / (4 * y * y), rel=1e-12)
    assert W == pytest.approx((2 - a) / 2.0, rel=1e-12)


def test_omega_inverse_potential_is_phi_over_y2():
    for a in (0.5, -1.0, -4.0):
        for eps in (0.1, 1.0):
            for y in (0.05, 0.3, 0.9):
                V, _ = _omega_inverse_potentials(a, eps, y)
                assert V == pytest.approx(dl.phi_big(a, y / eps) / (y * y), rel=1e-9)


def test_potentials_require_positive_y():
    with pytest.raises(ValueError):
        dl.potentials(0.5, 0.1, 0.0)


def test_phi_limits():
    for a in (0.9, 0.0, -3.0):
        assert dl.phi_big(a, 1e-7) == pytest.approx(2.0, abs=1e-6)
    # infinity limit checked via the series-backed antiderivative at t = 1e8,
    # with an a-aware tolerance (the approach is as slow as t^{-(1-a)})
    for a, tol in ((0.5, 2e-4), (-1.0, 1e-6), (-3.0, 1e-6)):
        assert dl.phi_big(a, 1e8) == pytest.approx(dl.phi_limit_infinity(a), rel=tol)


def test_phi_limit_zero_is_the_small_t_limit():
    """Phi_a(t) = phi_limit_zero() + O(t^2) as t -> 0+ for every a < 1."""
    for a in (0.9, 0.5, -1.0, -3.0):
        d1 = abs(dl.phi_big(a, 1e-3) - dl.phi_limit_zero())
        d2 = abs(dl.phi_big(a, 1e-4) - dl.phi_limit_zero())
        assert d1 <= 1e-4 and d2 <= 1e-2 * d1 + 1e-12, (a, d1, d2)


def test_phi_a0_is_constant_two():
    ts = np.geomspace(1e-4, 1e4, 100)
    assert np.max(np.abs(dl.phi_big(0.0, ts) - 2.0)) < 1e-12


def test_phi_second_summand_minimum_paper_value():
    # f_a(t) = a t^2 [(2-a)t^2 - 2] / (4 (1+t^2)^2): min at t = 1/sqrt(3-a)
    a = 0.5
    t = 1.0 / math.sqrt(3.0 - a)
    f = a * t * t * ((2 - a) * t * t - 2.0) / (4.0 * (1 + t * t) ** 2)
    assert f == pytest.approx(a / (4.0 * (a - 4.0)), rel=1e-12)
    assert f > -0.25


def test_v_limit_landmarks():
    assert dl.v_limit(5.1) == pytest.approx(0.95774, abs=1e-4)
    # the derivative identity against central differences
    h = 1e-6
    fd = (dl.v_limit(5.1 + h) - dl.v_limit(5.1 - h)) / (2 * h)
    assert dl.v_limit_deriv(5.1) == pytest.approx(fd, abs=1e-6)
    assert dl.v_limit_deriv(5.1) > 0.0
    t_star, vmin = dl.v_minimum()
    assert vmin == pytest.approx(0.77836, abs=1e-4)
    assert vmin > 0.5


def test_v_limit_closed_form():
    # finite far beyond the naive overflow point of exp(t^2/2), and on the
    # asymptote v = 1 - 1/t^2 - 2/t^4 + O(t^-6)
    for t, rel in ((60.0, 1e-9), (1e3, 1e-12), (1e6, 1e-12)):
        v = dl.v_limit(t)
        assert math.isfinite(v)
        assert v == pytest.approx(1.0 - 1.0 / t ** 2 - 2.0 / t ** 4, rel=rel)
    with pytest.raises(ValueError):
        dl.v_limit(0.0)
    ts = np.geomspace(0.01, 60.0, 37).reshape(37, 1) * np.ones((1, 2))
    want = np.array([[dl.v_limit(float(t)) for t in row] for row in ts])
    assert np.array_equal(dl.v_limit(ts), want)
    # int_0^t exp(s^2/2) ds = sqrt(pi/2) erfi(t/sqrt2), at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for t in (0.01, 1.0, 5.1, 60.0):
            tm = mpmath.mpf(t)
            integral = mpmath.sqrt(mpmath.pi / 2) * mpmath.erfi(tm / mpmath.sqrt(2))
            exact = float(mpmath.exp(tm * tm / 2) / (tm * integral))
            assert dl.v_limit(t) == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("fn", [w_deep, dl.gamma_small, dl.gamma_v_bound,
                                _antiderivative_unit])
def test_certificate_functions_broadcast(fn):
    # a = -3 fires the tail's p = 0 log term at k = 2; t / sqrt(-a) > 1e3
    # reaches the tail series
    A, T = np.broadcast_arrays(np.array([-0.2, -1.0, -3.0, -17.9, -43.0])[:, None],
                               np.array([0.05, 1.0, 2.42, 5.1, 40.0, 3e3, 1e5])[None, :])
    assert np.any(T / np.sqrt(-A) > 1e3)
    got = fn(A, T)
    assert got.shape == A.shape
    want = np.array([[fn(float(a), float(t)) for a, t in zip(ra, rt)]
                     for ra, rt in zip(A, T)])
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_w_deep_dominates_v():
    for a in (-3.0, -10.0, -43.0):
        for t in (0.5, 1.0, 2.42, 5.1):
            assert w_deep(a, t) >= dl.v_limit(t)


def test_w_deep_converges_to_v():
    t = 2.0
    gaps = [w_deep(a, t) - dl.v_limit(t) for a in (-10.0, -100.0, -1000.0)]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_gamma_forms_ordering():
    # the v-form is a pointwise lower bound for the exact certificate
    for a in (-3.0, -17.9, -43.0):
        for t in (1.0, 2.4, 5.0):
            assert dl.gamma_v_bound(a, t) <= dl.gamma_small(a, t) + 1e-12
