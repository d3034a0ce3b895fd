"""Weight family, characteristic integrals, and ratio functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degenlab as dl
from degenlab.weights import _antiderivative_unit, v_char_profile


# -- independent oracle: adaptive Simpson ------------------------------------

def adaptive_simpson(f, a, b, tol=1e-11, depth=40):
    """Relative-error adaptive Simpson (the oracle stays independent of the
    hypergeometric path it checks)."""

    def simp(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simp(fa, flm, fm, a, m)
        right = simp(fm, frm, fb, m, b)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, tol / 2, depth - 1)
                + rec(m, b, fm, frm, fb, right, tol / 2, depth - 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simp(fa, fm, fb, a, b)
    return rec(a, b, fa, fm, fb, whole, tol * (1.0 + abs(whole)), depth)


def test_rho_trivial_values():
    assert dl.rho(dl.WeightFamily(0.0, 0.7), 0.3) == 1.0
    assert dl.rho(dl.WeightFamily(-2.0, 1.0), 1.0) == pytest.approx(0.5)
    assert dl.rho(dl.WeightFamily(0.5, 0.0), 0.25) == pytest.approx(0.5)


def test_rho_singular_point_signal():
    with pytest.raises(dl.SingularWeightError):
        dl.rho(dl.WeightFamily(-0.5, 0.0), 0.0)
    # degenerate (a > 0) point is a plain zero
    assert dl.rho(dl.WeightFamily(0.5, 0.0), 0.0) == 0.0


def test_rho_normalization_identity_for_small_eps():
    for a in (-1.5, 0.7):
        for eps in (0.0, 0.3, 1.0):
            f1 = dl.WeightFamily(a, eps, normalized=False)
            f2 = dl.WeightFamily(a, eps, normalized=True)
            assert dl.rho(f1, 0.4) == dl.rho(f2, 0.4)


def test_chi_trivial_and_closed_forms():
    assert dl.chi(dl.WeightFamily(0.0, 0.37), 0.7) == pytest.approx(0.7)
    assert dl.chi(dl.WeightFamily(-2.0, 0.0), 2.0) == pytest.approx(8.0 / 3.0)


def test_chi_against_adaptive_simpson_oracle():
    a, eps = 0.5, 0.1
    oracle = adaptive_simpson(lambda s: (eps * eps + s * s) ** (-a / 2.0), 0.0, 1.0)
    assert dl.chi(dl.WeightFamily(a, eps), 1.0) == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("a", [0.9, 0.3, -0.7, -1.5, -3.0])
@pytest.mark.parametrize("t", [0.03, 1.0, 7.0, 2500.0])
def test_antiderivative_matches_quadrature(a, t):
    chunks = np.geomspace(1e-3, t, 25)
    total, prev = 0.0, 0.0
    for edge in chunks:
        total += adaptive_simpson(lambda s: (1 + s * s) ** (-a / 2.0), prev, edge,
                                  tol=1e-10)
        prev = edge
    assert _antiderivative_unit(a, t) == pytest.approx(total, rel=1e-8)


def test_chi_divergence_signal():
    with pytest.raises(dl.DivergentIntegralError):
        dl.chi(dl.WeightFamily(1.2, 0.0), 0.5)


def test_chi_eps_to_zero_monotone_pointwise():
    a, y = 0.5, 0.5
    limit = y ** (1 - a) / (1 - a)
    gaps = [abs(dl.chi(dl.WeightFamily(a, e), y) - limit)
            for e in (1.0, 0.3, 0.1, 0.03, 0.01)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    # the gap closes like eps^(1-a)
    assert gaps[-1] / gaps[0] < 0.2


@settings(max_examples=100, derandomize=True)
@given(a=st.floats(-3.0, 0.95), eps=st.floats(0.01, 1.0),
       y=st.floats(0.01, 1.0))
def test_parities(a, eps, y):
    fam = dl.WeightFamily(a, eps)
    assert dl.rho(fam, y) == dl.rho(fam, -y)
    assert dl.omega(fam, y) == dl.omega(fam, -y)
    assert dl.chi(fam, -y) == pytest.approx(-dl.chi(fam, y), rel=1e-12)
    sol = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 1.0 / (1.0 + s * s))
    assert dl.v_char(sol, 0.3, -y) == pytest.approx(-dl.v_char(sol, 0.3, y), rel=1e-9)


@settings(max_examples=40, derandomize=True)
@given(a=st.floats(-3.0, 0.9), y=st.floats(1e-3, 1.0))
def test_rho_monotone_on_positive_axis(a, y):
    fam = dl.WeightFamily(a, 0.25)
    lo, hi = dl.rho(fam, y), dl.rho(fam, min(1.0, y * 1.5))
    if a >= 0:
        assert hi >= lo
    else:
        assert hi <= lo


def test_psi_limits_and_value():
    # limits from the scale-invariant profile
    assert dl.psi(-1.0, 1.0, 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert dl.psi(-1.0, 1e-4, 1.0) == pytest.approx(2.0, rel=1e-3)   # t = 1e4 -> 1 - a
    # closed-form oracle at a=-1, t=1: sqrt2 / ((sqrt2 + asinh 1)/2)
    want = 2.0 * math.sqrt(2.0) / (math.sqrt(2.0) + math.asinh(1.0))
    assert dl.psi(-1.0, 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_psi_scale_identity():
    a = -0.7
    for eps in (0.01, 0.1, 1.0):
        for y in (0.05, 0.3, 0.9):
            assert dl.psi(a, eps, y) == pytest.approx(dl.psi(a, 1.0, y / eps), rel=1e-12)


@pytest.mark.parametrize("a", [-2.0, -0.5, 0.5])
def test_psi_sup_inf_bounds(a):
    ys = np.geomspace(1e-6, 1.0, 10_000)
    vals = np.array([dl.psi(a, eps, ys) for eps in (0.01, 0.1, 1.0)])
    sup = max(float(vals.max()), 1.0, 1.0 - a)
    inf = min(float(vals.min()), 1.0, 1.0 - a)
    assert sup == pytest.approx(max(1.0, 1.0 - a), abs=1e-6)
    assert inf == pytest.approx(min(1.0, 1.0 - a), abs=1e-6)
    # probed values never leave the band
    assert vals.max() <= max(1.0, 1.0 - a) + 1e-9
    assert vals.min() >= min(1.0, 1.0 - a) - 1e-9


def test_xi_values():
    assert dl.xi(0.0, 0.8) == pytest.approx(0.4, rel=1e-12)       # t/2
    assert dl.xi(0.3, 1e-8) == pytest.approx(0.0, abs=1e-7)
    assert dl.xi(-2.0, 1.0) == pytest.approx(9.0 / 16.0, rel=1e-12)
    assert dl.xi(-1.2, 3.0) <= 3.0


def test_omega_values():
    assert dl.omega(dl.WeightFamily(0.0, 0.2), 0.4) == pytest.approx(0.16)
    assert dl.omega(dl.WeightFamily(0.5, 0.0), 0.5) == pytest.approx(0.5 ** 1.5)
    # Taylor oracle: for eps=1, a=-1: omega/y^2 -> rho(0) * (1-a)^2 * (chi'(0))^2 = 1*4*1...
    # chi(y) ~ rho^{-a}(0) y = y, omega ~ rho(0)*(1-a)^2*y^2 -> omega/y^2 -> (1-a)^2 * rho(0)^{1-2a}...
    fam = dl.WeightFamily(-1.0, 1.0)
    y = 1e-6
    want = dl.rho(fam, 0.0) * (1 - (-1.0)) ** 2 * (1.0) ** 2  # chi'(0) = rho^{-a}(0) = 1
    assert dl.omega(fam, y) / (y * y) == pytest.approx(want, rel=1e-6)


def test_v_char_constant_and_scaled_mu():
    fam = dl.WeightFamily(0.0, 0.5)
    sol1 = dl.CharacteristicSolution(fam)
    assert dl.v_char(sol1, 0.0, 0.5) == pytest.approx(0.5)
    sol2 = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 0.5)
    assert dl.v_char(sol2, 0.0, 0.5) == pytest.approx(0.25)


def test_v_char_arctan_oracle():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.0, 0.0),
                                    mu_inverse=lambda x, s: 1.0 / (1.0 + s * s))
    assert dl.v_char(sol, 0.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_v_char_reduces_to_chi():
    fam = dl.WeightFamily(0.4, 0.2)
    sol = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 1.0)
    for y in (0.1, 0.7):
        assert dl.v_char(sol, 0.0, y) == pytest.approx(
            (1 - fam.a) * dl.chi(fam, y), rel=1e-9)


def test_v_char_positive_for_positive_y():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                    mu_inverse=lambda x, s: 1.0 / (1.5 + math.sin(3 * s)))
    ys = np.linspace(0.01, 1.0, 17)
    assert all(dl.v_char(sol, 0.2, y) > 0 for y in ys)


def test_v_char_grad_x_matches_finite_difference():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.0, 0.0),
                                    mu_inverse=lambda x, s: 1.0 / (1.0 + x * x * s))
    gx = dl.v_char_grad_x(sol, 1.0, 0.5)
    step = 1e-5
    fd = (dl.v_char(sol, 1.0 + step, 0.5) - dl.v_char(sol, 1.0 - step, 0.5)) / (2 * step)
    assert gx == pytest.approx(fd, abs=1e-8)


def test_gamma_ratio_values_and_limits():
    assert dl.gamma_ratio(0.3, 0.2, None, 0.0, 0.5) == 1.0
    got = dl.gamma_ratio(0.0, 0.0, lambda x, s: 1.0 / (1.0 + s), 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0), rel=1e-10)
    # y -> 0+ limit equals mu^{-1}(x, 0) for three sampled fields
    for mu_inv in (lambda x, s: 1.0 / (1.0 + s),
                   lambda x, s: 2.0 / (2.0 + s * s),
                   lambda x, s: 1.0 / (1.5 + math.sin(s))):
        want = mu_inv(0.0, 0.0)
        assert dl.gamma_ratio(0.5, 0.1, mu_inv, 0.0, 1e-9) == pytest.approx(want, rel=1e-6)


def test_gamma_ratio_holder_uniformity_across_eps():
    """Discrete alpha-seminorm of the ratio stays within 3x of its eps=1 value."""
    alpha = 0.5

    def mu_inv(x, s):
        return 1.0 / (1.0 + 0.3 * abs(s) ** alpha + 0.1 * x * x)

    grid = dl.build_half_grid(1, "half_rectangle", 1.0 / 16)
    semis = {}
    for eps in (1.0, 0.1, 0.01, 0.0):
        fld = dl.DiscreteField.sample(
            grid, lambda x, y, e=eps: dl.gamma_ratio(0.5, e, mu_inv, x, abs(y)), "even")
        semis[eps] = dl.holder_seminorm(fld, alpha, dl.Region(1.0, 1.0))
    for eps, s in semis.items():
        assert s <= 3.0 * semis[1.0] + 1e-12, (eps, semis)


def test_segment_memo_is_isolated():
    """The segment memo serves only the default integrand of its own solution."""
    fam = dl.WeightFamily(0.5, 0.1)

    def mu_inv(x, s):
        return 1.0 / (1.0 + x * x * s)

    ys = np.linspace(0.05, 1.0, 20)
    sol = dl.CharacteristicSolution(fam, mu_inverse=mu_inv)
    v = v_char_profile(sol, 0.7, ys)
    # an integrand factor bypasses the memo the profile just filled
    want = dl.v_char_grad_x(dl.CharacteristicSolution(fam, mu_inverse=mu_inv), 0.7, 0.5)
    assert dl.v_char_grad_x(sol, 0.7, 0.5) == want
    # a second solution with another mu keeps its own memo
    other = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 0.5 * mu_inv(x, s))
    assert np.allclose(v_char_profile(other, 0.7, ys), 0.5 * v, rtol=1e-9)
    # memo hits repeat the first evaluation exactly
    w = dl.RhoWeight(fam, mu_inv)
    y0, y1 = np.r_[0.0, ys[:-1]], ys
    r1 = w.resistance_y(0.7, ys, y0, y1)
    assert np.array_equal(w.resistance_y(0.7, ys, y0, y1), r1)
    assert np.array_equal(v_char_profile(w.sol, 0.7, ys),
                          (1.0 - fam.a) * np.cumsum(r1))
