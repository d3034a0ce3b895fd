"""Weight family, characteristic integrals, and ratio functions."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

import degenlab as dl
from degenlab.weights import QUADRATURE_TOL, _antiderivative_unit, v_char_profile


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


@pytest.mark.parametrize("a,eps", [(-3.6463472573565566e-82, 4.892085251810417e-241),
                                   (-0.5, 1e-200), (0.5, 1e-300)])
def test_rho_where_eps_squared_underflows(a, eps):
    """Below eps = 1e-162, eps^2 rounds to 0: rho(0) is still eps^a (not
    0^(a/2), inf or 0), and rho(y) is |y|^a to rounding."""
    fam = dl.WeightFamily(a, eps)
    assert dl.rho(fam, 0.0) == pytest.approx(eps ** a, rel=1e-15)
    assert math.isfinite(dl.rho(fam, 0.0)) and dl.rho(fam, 0.0) > 0.0
    y = np.array([0.0, 1e-3, 0.5])
    np.testing.assert_allclose(dl.rho(fam, y)[1:], y[1:] ** a, rtol=1e-15)


def test_weight_family_rejects_negative_eps():
    with pytest.raises(ValueError, match="eps must be >= 0"):
        dl.WeightFamily(0.5, -1e-3)
    assert dl.WeightFamily(0.5, 0.0).eps == 0.0


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


@pytest.mark.parametrize("eps", [1e10, np.float64(1e10)], ids=["float", "float64"])
def test_chi_where_its_scale_overflows(eps):
    """At a = -30, eps = 1e10 the factor eps^(1-a) = 1e310 overflows, for a
    Python or a numpy eps alike, but chi ~ eps^(-a) y does not; at a = -40
    chi overflows too, and chi(0) stays 0."""
    y = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(dl.chi(dl.WeightFamily(-30.0, eps), y), 1e300 * y, rtol=1e-12)
    assert np.array_equal(dl.chi(dl.WeightFamily(-40.0, eps), y), [0.0, np.inf, np.inf])


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
    assert dl.chi(fam, -y) == pytest.approx(-dl.chi(fam, y), rel=1e-12)
    sol = dl.CharacteristicSolution(fam, mu_inverse=(None, lambda s: 1.0 / (1.0 + s * s)))
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
    # eps = 0: identically 1 - a, the plane included, for scalars and arrays
    assert dl.psi(-1.0, 0.0, 0.5) == 2.0
    np.testing.assert_array_equal(dl.psi(0.5, 0.0, np.array([0.0, 1e-9, 3.0])), 0.5)


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


def test_v_char_constant_and_scaled_mu():
    fam = dl.WeightFamily(0.0, 0.5)
    sol1 = dl.CharacteristicSolution(fam)
    assert dl.v_char(sol1, 0.0, 0.5) == pytest.approx(0.5)
    sol2 = dl.CharacteristicSolution(fam, mu_inverse=(lambda x: 0.5, None))
    assert dl.v_char(sol2, 0.0, 0.5) == pytest.approx(0.25)


def test_v_char_arctan_oracle():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.0, 0.0),
                                    mu_inverse=(None, lambda s: 1.0 / (1.0 + s * s)))
    assert dl.v_char(sol, 0.0, 1.0) == pytest.approx(math.pi / 4.0, rel=1e-10)


def test_v_char_reduces_to_chi():
    fam = dl.WeightFamily(0.4, 0.2)
    sol = dl.CharacteristicSolution(fam, mu_inverse=(None, lambda s: 1.0))    # integrated
    for y in (0.1, 0.7):
        assert dl.v_char(sol, 0.0, y) == pytest.approx(
            (1 - fam.a) * dl.chi(fam, y), rel=1e-9)


def test_v_char_positive_for_positive_y():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                    mu_inverse=(None, lambda s: 1.0 / (1.5 + np.sin(3 * s))))
    ys = np.linspace(0.01, 1.0, 17)
    assert all(dl.v_char(sol, 0.2, y) > 0 for y in ys)


def test_quadrature_error_carries_value_and_abserr():
    """A segment quad cannot resolve raises with the value and error
    estimate it reached; the value is within that estimate of the integral.
    n^(-1) = 1 + (c/2) sin(1e5 s) is the column x = 0.5 of 1 + c x sin(1e5 s)."""
    a, c = -0.5, 1e-3
    sol = dl.CharacteristicSolution(
        dl.WeightFamily(a, 0.0), mu_inverse=(None, lambda s: 1.0 + 0.5 * c * np.sin(1e5 * s)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(dl.QuadratureError) as exc:
            dl.v_char(sol, 0.5, 0.7)
    # int_0^y s^(1/2) ds, plus 0.5 c int_0^y s^(1/2) sin(1e5 s) ds, |.| < 1e-5
    exact = 0.7 ** 1.5 / 1.5
    assert exc.value.abserr > 10 * QUADRATURE_TOL * abs(exc.value.value)
    assert abs(exc.value.value - exact) <= exc.value.abserr + 1e-5 * c


def test_characteristic_solution_refuses_a_third_field():
    """The solution takes two fields: a third argument (an x-derivative of
    mu^(-1), say) fails at construction, not in a quadrature."""
    fam = dl.WeightFamily(0.5, 0.1)
    with pytest.raises(TypeError, match="positional argument"):
        dl.CharacteristicSolution(fam, (None, lambda s: 1.0), lambda x, s: 0.0)


def test_mu_inverse_is_a_pair_of_factors():
    """mu^(-1) is the pair (m^(-1)(x), n^(-1)(y)): a plain pair is taken as
    one, None and (None, None) are mu == 1, stored as MuInverse() (N is chi
    in closed form), and an (x, y) sampler,
    which need not be a product, is refused at construction."""
    fam = dl.WeightFamily(0.5, 0.1)
    pair = dl.CharacteristicSolution(fam, (np.cos, None)).mu_inverse
    assert isinstance(pair, dl.MuInverse) and pair == (np.cos, None)
    assert pair(0.3, 0.7) == np.cos(0.3)
    assert dl.CharacteristicSolution(fam, (None, None)).mu_inverse == dl.MuInverse()
    assert dl.CharacteristicSolution(fam).mu_inverse == dl.MuInverse()
    with pytest.raises(TypeError, match="must be a pair"):
        dl.CharacteristicSolution(fam, lambda x, s: 1.0 + x * s)


def _gamma_ratio(a, eps, mu_inverse, x, y):
    """v(x, y) / ((1-a) chi(y)), the rho^(-a)-average of mu^(-1) over (0, y)."""
    fam = dl.WeightFamily(a, eps)
    return dl.v_char(dl.CharacteristicSolution(fam, mu_inverse), x, y) / ((1.0 - a) * dl.chi(fam, y))


def test_gamma_ratio_values_and_limits():
    assert _gamma_ratio(0.3, 0.2, None, 0.0, 0.5) == pytest.approx(1.0, rel=1e-15)
    got = _gamma_ratio(0.0, 0.0, (None, lambda s: 1.0 / (1.0 + s)), 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0), rel=1e-10)
    # y -> 0+ limit equals mu^{-1}(x, 0) for three sampled fields
    for n_inv in (lambda s: 1.0 / (1.0 + s),
                  lambda s: 2.0 / (2.0 + s * s),
                  lambda s: 1.0 / (1.5 + np.sin(s))):
        want = n_inv(0.0)
        assert _gamma_ratio(0.5, 0.1, (None, n_inv), 0.0, 1e-9) == pytest.approx(want, rel=1e-6)


def test_gamma_ratio_holder_uniformity_across_eps():
    """Discrete alpha-seminorm of v / ((1-a) chi) stays within 3x of its eps=1 value."""
    alpha = 0.5
    mu_inv = (lambda x: 1.0 / (1.0 + 0.1 * x * x), lambda s: 1.0 / (1.0 + 0.3 * abs(s) ** alpha))

    grid = dl.build_half_grid(1, "half_rectangle", 1.0 / 16)
    semis = {}
    for eps in (1.0, 0.1, 0.01, 0.0):
        fld = dl.DiscreteField.sample(
            grid, lambda x, y, e=eps: _gamma_ratio(0.5, e, mu_inv, x, abs(y)), "even")
        semis[eps] = dl.holder_seminorm(fld, alpha, dl.Region(1.0, 1.0))
    for eps, s in semis.items():
        assert s <= 3.0 * semis[1.0] + 1e-12, (eps, semis)


def test_segment_memo_is_isolated():
    """The ladder of N serves only its own solution; a hit repeats the first
    evaluation exactly, and v at the cell centres and the y-resistances are
    the same N (its values and their differences)."""
    a = 0.5
    fam = dl.WeightFamily(a, 0.1)

    def n_inv(s):
        return 1.0 / (1.0 + 0.49 * s)

    ys = (np.arange(20) + 0.5) * (1 / 20)       # cell centres, as a grid holds them
    sol = dl.CharacteristicSolution(fam, (None, n_inv))
    v = v_char_profile(sol, 0.7, ys)
    # a second solution with another mu keeps its own ladder
    other = dl.CharacteristicSolution(fam, (None, lambda s: 0.5 * n_inv(s)))
    assert np.allclose(v_char_profile(other, 0.7, ys), 0.5 * v, rtol=1e-9)
    # memo hits repeat the first evaluation exactly
    w = dl.RhoWeight(fam, (None, n_inv))
    y0, y1 = np.r_[0.0, ys[:-1]], ys
    r1 = w.resistance_y(0.7, ys, y0, y1)
    assert np.array_equal(w.resistance_y(0.7, ys, y0, y1), r1)
    N = w.sol.integral(ys)
    assert np.array_equal(v_char_profile(w.sol, 0.7, ys), (1.0 - a) * N)
    assert np.array_equal(np.diff(np.r_[0.0, N]), r1)


# -- the vectorised dqk21 pass against scipy quad -----------------------------

# n^(-1)(s); "quadratic" is the column x = 0.3 of 1/(1 + 0.1 x^2 + 0.5 s^2)
_MU_INVERSES = {
    "constant": lambda s: 0.8 + 0.0 * s,
    "quadratic": lambda s: 1.0 / (1.009 + 0.5 * s * s),
    "oscillating": lambda s: 1.0 / (1.5 + np.sin(40.0 * s)),
}


@pytest.mark.parametrize("mu", sorted(_MU_INVERSES))
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.01, 1.0])
@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5, 0.9])
def test_column_rule_matches_quad(a, eps, mu):
    """Each segment of a ladder, the first one at y0 = 0 included, equals the
    scalar ``quad`` value: the dqk21 pass returns quad's own first pass when
    it is accepted and defers to quad when it is not.  N on the ladder is
    the cumulative sum of the segments."""
    fam = dl.WeightFamily(a, eps)
    g = _MU_INVERSES[mu]
    ys = (np.arange(16) + 0.5) / 16
    y0, y1 = np.r_[0.0, ys[:-1]], ys
    sol = dl.CharacteristicSolution(fam, (None, g))
    seg = sol._integrate(y0, y1)
    one = dl.CharacteristicSolution(fam, (None, g))
    want = np.array([one._quad(s0, s1) for s0, s1 in zip(y0, y1)])
    assert np.allclose(seg, want, rtol=1e-13, atol=0.0)
    assert np.array_equal(sol.integral(ys), np.cumsum(seg))


@pytest.mark.parametrize("mu", sorted(_MU_INVERSES))
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.01, 1.0])
@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5, 0.9])
def test_column_rule_accepts_where_quad_stops_after_one_pass(a, eps, mu):
    """``QUADRATURE_TOL`` means what it means to qags: the dqk21 pass accepts
    a segment exactly when ``quad`` at that tolerance stops after its first
    21 evaluations, on the same integrand (in u = s^(1-a)/(1-a) on the
    segments from 0 when eps = 0 and a > 0)."""
    g = _MU_INVERSES[mu]
    ys = (np.arange(16) + 0.5) / 16
    y0, y1 = np.r_[0.0, ys[:-1]], ys
    sol = dl.CharacteristicSolution(dl.WeightFamily(a, eps), (None, g))
    _, ok = sol._dqk21(y0, y1)
    b = 1.0 - a
    stops = []
    for s0, s1 in zip(y0, y1):
        if s0 == 0.0 and eps == 0.0 and a > 0.0:
            f, lo, hi = (lambda u: g((b * u) ** (1.0 / b))), 0.0, s1 ** b / b
        else:
            f, lo, hi = (lambda s: (eps * eps + s * s) ** (-a / 2.0) * g(s)), s0, s1
        info = quad(f, lo, hi, epsabs=0, epsrel=QUADRATURE_TOL, limit=200, full_output=1)[2]
        stops.append(info["neval"] == 21)
    assert ok.tolist() == stops


@pytest.mark.parametrize("a,eps,n_inv", [
    (0.5, 0.1, lambda s: 1.0 + 100.0 * np.exp(-((s - 0.3) / 0.01) ** 2)),   # steep mu
    (0.9, 1e-3, lambda s: 1.0 / (1.0 + s * s)),          # rho^(-a) steep near 0
])
def test_rejected_segments_take_the_quad_fallback(monkeypatch, a, eps, n_inv):
    """A segment that fails qags's test after the dqk21 pass gets quad's value.
    (A tiny QUADRATURE_TOL cannot force this: quad refuses epsrel below
    50 machine epsilons, which dqk21's error floor already meets.)"""
    import degenlab.weights as weights

    calls = []
    quad = weights.quad

    def counting(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    fam = dl.WeightFamily(a, eps)
    y0, y1 = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    want = [dl.CharacteristicSolution(fam, (None, n_inv))._quad(s0, s1)
            for s0, s1 in zip(y0, y1)]
    monkeypatch.setattr(weights, "quad", counting)
    got = dl.CharacteristicSolution(fam, (None, n_inv))._integrate(y0, y1)
    assert len(calls) >= 1
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_quad_forwards_to_scipy_quad():
    """``weights.quad`` imports scipy's on its first call and returns exactly
    what scipy's returns, the full-output record included (its arrays are
    defined up to ``last``, the number of subintervals used)."""
    from degenlab.weights import quad as lazy_quad

    def f(s):
        return (1e-4 + s * s) ** -0.25

    kw = dict(epsabs=0, epsrel=1e-10, limit=200, full_output=1)
    got, want = lazy_quad(f, 0.0, 1.0, **kw), quad(f, 0.0, 1.0, **kw)
    assert len(got) == len(want) and got[:2] == want[:2]
    assert got[2].keys() == want[2].keys()
    used = want[2]["last"]
    for key, value in want[2].items():
        assert np.array_equal(np.atleast_1d(got[2][key])[:used],
                              np.atleast_1d(value)[:used]), key


def test_gauss_kronrod_constants_and_error_estimate():
    """The 21-point Kronrod rule integrates x^k exactly for k <= 31 and its
    embedded 10-point Gauss rule for k <= 19 (and no further); on a segment
    that quad accepts after one pass, result and error estimate are quad's."""
    from scipy.integrate import quad

    from degenlab.weights import _WG, _WGK, _XGK, _gk21, _gk21_nodes

    def kronrod(k):
        return _WGK[10] * 0.0 ** k + np.sum(_WGK[:10] * (_XGK[:10] ** k + (-_XGK[:10]) ** k))

    def gauss(k):
        x = _XGK[1:10:2]
        return np.sum(_WG * (x ** k + (-x) ** k))

    for k in range(33):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        if k <= 31:
            assert kronrod(k) == pytest.approx(exact, abs=5e-16), k
        if k <= 19:
            assert gauss(k) == pytest.approx(exact, abs=5e-16), k
    assert abs(gauss(20) - 2.0 / 21) > 1e-9

    def f(s):
        return 1.0 / (1.0 + 3.0 * s * s) + s * s * s

    lo, hi = np.array([0.2]), np.array([0.9])
    val, err, info = quad(f, 0.2, 0.9, epsabs=0.0, epsrel=1e-10, full_output=1)[:3]
    assert info["neval"] == 21
    result, abserr, _ = _gk21(f(_gk21_nodes(lo, hi)), lo, hi)
    assert result[0] == pytest.approx(val, rel=1e-15)
    assert abserr[0] == pytest.approx(err, rel=1e-13)


def test_sampler_must_broadcast():
    def scalar_only(s):
        return 1.0 / (1.5 + math.sin(s))

    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse=(None, scalar_only))
    with pytest.raises(ValueError, match="mu_inverse sampler .*scalar_only"):
        dl.v_char(sol, 0.0, 0.5)               # one point: one pass on arrays all the same
    with pytest.raises(ValueError, match="scalar_only"):
        v_char_profile(sol, 0.0, [0.25, 0.5])
    const = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse=(None, lambda s: 2.0))
    assert v_char_profile(const, 0.0, [0.25, 0.5]) == pytest.approx(
        2.0 * (1 - 0.5) * dl.chi(dl.WeightFamily(0.5, 0.1), np.array([0.25, 0.5])), rel=1e-12)


def test_sampler_must_broadcast_over_x():
    """A factor m^(-1) that takes a scalar x only fails the whole-grid call,
    in the resistances and in mu_at, with a ValueError naming it."""
    def cos_column(x):
        return 1.0 / (1.5 + math.cos(x))

    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    with pytest.raises(ValueError, match="cos_column"):
        dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.5, 0.1), (cos_column, None)))
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), (cos_column, None))
    with pytest.raises(ValueError, match="cos_column"):
        sol.mu_at(g.centers[:, 0], g.centers[:, 1])


def _tilt(x):
    """A linear function of the column position, odd in x (so that a mix-up
    of columns x and -x of a symmetric grid shows)."""
    return x[0] + 0.5 * x[1] if isinstance(x, tuple) else x


@pytest.mark.parametrize("grid", [(1, "half_rectangle", 1 / 8), (1, "half_disk", 1 / 8),
                                  (2, "half_rectangle", 1 / 4)],
                         ids=["n1-rect", "n1-disk", "n2-rect"])
@pytest.mark.parametrize("a,eps", [(0.5, 0.0), (-0.5, 0.1), (0.9, 1e-3)])
def test_whole_grid_pass_matches_quad_per_segment(monkeypatch, grid, a, eps):
    """The y-resistances of a grid are m^(-1)(x) times differences of N on
    the half-spacing ladder, integrated in one dqk21 pass (one call of
    n^(-1)) for every column, with one call of m^(-1) on the array of column
    positions (a tuple of them for n = 2).  They equal m^(-1)(x) times a
    scalar ``quad`` of each segment to 1e-13 relative and land between the
    cells of their own column in the matrix; v on the cell centres of all
    columns equals the profile of each column alone.  eps = 0 with a > 0
    takes the substitution on the segment from the plane.  On the half
    rectangle every column shares one list of segments, from the plane to
    the top face; the half disk has columns of different heights, and a
    row of segments per column, each ending at its face of the staircase.  At
    a = 0.9, eps = 1e-3 some segments fail qags's test and take the scalar
    ``quad`` fallback.  Each factor takes 2 calls on arrays: the
    resistances, then mu on the x-faces of every axis at once."""
    m_calls, n_calls = [], []

    def m_inv(x):
        m_calls.append(x)
        return 1.0 / (1.5 + 0.3 * _tilt(x))

    def n_inv(s):
        if np.ndim(s):          # not a scalar call of quad
            n_calls.append(np.shape(s))
        return 1.0 / (1.0 + 0.5 * s * s)

    n, shape, h = grid
    g = dl.build_half_grid(n, shape, h)
    fam = dl.WeightFamily(a, eps)
    w = dl.RhoWeight(fam, (m_inv, n_inv))
    seen = []
    resistance_y = dl.RhoWeight.resistance_y

    def recording(self, x, ys, y0, y1):
        out = resistance_y(self, x, ys, y0, y1)
        seen.append((x, y0, y1, out))
        return out

    monkeypatch.setattr(dl.RhoWeight, "resistance_y", recording)
    op = dl.assemble(g, w, parity="odd")
    assert len(seen) == 1 and len(m_calls) == len(n_calls) == 2
    assert n_calls[0] == (2 * g.ny, 21)
    x, y0, y1, got = seen[0]
    assert isinstance(m_calls[0], tuple) == (n == 2)
    assert got.shape == (g.nx ** n, g.ny + 1)
    assert y1.shape == ((g.ny + 1,) if shape == "half_rectangle" else got.shape)
    y0, y1 = (np.broadcast_to(y, got.shape) for y in (y0, y1))
    cols = x if n == 2 else (x,)
    one = dl.CharacteristicSolution(fam, (None, n_inv))
    quads = [one._quad(s0, s1) for s0, s1 in zip(y0.ravel(), y1.ravel())]
    want = m_inv(x)[..., None] * np.reshape(quads, got.shape)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    ys = (np.arange(g.ny) + 0.5) * h
    top = np.count_nonzero(g.index >= 0, axis=-1).ravel()      # each column's cells
    assert np.array_equal(y1[np.arange(len(top)), top], top * h)
    assert (len(set(top)) > 1) == (shape == "half_disk")
    dof = {tuple(c): i for i, c in enumerate(g.centers.tolist())}
    for r, k in itertools.product(range(g.nx ** n), range(1, g.ny)):
        if k < top[r]:                                          # an inner face
            xr = tuple(c[r] for c in cols)
            tau = -op.matrix[dof[xr + (y0[r, k],)], dof[xr + (y1[r, k],)]]
            assert tau == pytest.approx(h ** n / got[r, k], rel=1e-13)
    v = v_char_profile(dl.CharacteristicSolution(fam, (m_inv, n_inv)), x, ys)
    for k, xk in enumerate(zip(*cols)):
        alone = v_char_profile(dl.CharacteristicSolution(fam, (m_inv, n_inv)),
                               xk[0] if n == 1 else xk, ys)
        assert np.array_equal(v[k], alone)


def test_columns_share_one_pass_of_N():
    """Segments of several columns take one pass over the distinct
    ordinates of N (and scalar quad for the segments that pass rejects),
    and each is m^(-1) of its column times a scalar quad of the segment."""
    fam = dl.WeightFamily(0.5, 0.1)
    calls = []

    def m_inv(x):
        return 1.0 / (1.0 + 0.3 * x * x)

    def n_inv(s):
        calls.append(np.shape(s))
        return 1.0 / (1.0 + 0.5 * s * s)

    x = np.array([0.1, 0.1, 0.7, 0.7])
    y0, y1 = np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.25, 0.5, 0.75, 1.0])
    sol = dl.CharacteristicSolution(fam, (m_inv, n_inv))
    got = sol.segment_integral(x, y0, y1)
    assert [c for c in calls if c] == [(4, 21)]    # N at 0.25, 0.5, 0.75, 1 (N(0) = 0)
    one = dl.CharacteristicSolution(fam, (None, n_inv))
    want = m_inv(x) * [one._quad(s0, s1) for s0, s1 in zip(y0, y1)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# -- the ladder of N -----------------------------------------------------------

_LADDER_MU_INVERSES = {
    "quadratic": dl.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 0.1 * x * x)),
    "y-dependent": dl.MuInverse(n_inv=lambda s: 1.0 / (2.0 * (1.0 - s / 2.0))),
}


@pytest.mark.parametrize("mu", sorted(_LADDER_MU_INVERSES))
@pytest.mark.parametrize("eps", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("a", [-0.5, 0.5, 0.9])
def test_v_char_at_ladder_edges_reads_the_cumulative_sum(monkeypatch, a, eps, mu):
    """v at every ordinate of a column's resistance ladder (cell centres and
    the top face) is read from the half-spacing ladder of N that the
    resistances computed, without sampling n^(-1) or evaluating chi again,
    and equals a fresh quad over [0, y]."""
    import degenlab.weights as weights

    pair = _LADDER_MU_INVERSES[mu]
    calls = []
    chi = weights.chi

    def counting_n(s):
        calls.append(np.shape(s))
        return pair.n_inv(s)

    def counting_chi(*args):
        calls.append("chi")
        return chi(*args)

    monkeypatch.setattr(weights, "chi", counting_chi)
    fam = dl.WeightFamily(a, eps)
    ys = (np.arange(16) + 0.5) / 16
    y0, y1 = np.r_[0.0, ys], np.r_[ys, 1.0]
    w = dl.RhoWeight(fam, pair._replace(n_inv=pair.n_inv and counting_n))
    w.resistance_y(0.3, ys, y0, y1)
    calls.clear()
    got = dl.v_char(w.sol, 0.3, y1)
    assert calls == []
    # the same mu^(-1) in the column x = 0.3, as a factor of y alone
    col = dl.CharacteristicSolution(fam, (None, lambda s: pair(0.3, s)))
    want = np.array([(1.0 - a) * col._quad(0.0, y) for y in y1])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # the profile at the cell centres is the same read
    assert np.array_equal(v_char_profile(w.sol, 0.3, ys), got[:-1])
    assert calls == []


def test_v_char_off_the_ladders_takes_one_pass():
    """v at points off the ladder, in several columns and of both signs,
    takes one call of n^(-1) on an array for all of them (and scalar quad
    for the segments that pass rejects), and equals m^(-1)(x) times a
    scalar quad of each to 1e-13 relative."""
    fam = dl.WeightFamily(0.5, 0.1)
    calls = []

    def m_inv(x):
        return 1.0 / (1.0 + 0.1 * x * x)

    def n_inv(s):
        calls.append(np.shape(s))
        return 1.0 / (1.0 + 0.5 * s * s)

    x = np.array([-0.7, -0.7, 0.2, 0.9, 0.9])
    y = np.array([0.3, -0.55, 0.8, 0.05, 1.0])
    sol = dl.CharacteristicSolution(fam, (m_inv, n_inv))
    got = dl.v_char(sol, x, y)
    assert [c for c in calls if c] == [(len(x), 21)]
    want = [np.sign(yk) * 0.5 * m_inv(xk) * sol._quad(0.0, abs(yk)) for xk, yk in zip(x, y)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_full_and_half_spacing_ladders_are_integrated_apart():
    """A half-spacing ladder on a solution that holds the full-spacing one
    is integrated on its own, from 0: each equals the values of a fresh
    solution exactly.  It takes the full-spacing one's place and holds all
    its ordinates, so the full-spacing ladder and any segment between its
    ordinates are then read without another pass."""
    fam = dl.WeightFamily(0.5, 0.1)
    calls = []

    def g(s):
        calls.append(np.shape(s))
        return _LADDER_MU_INVERSES["y-dependent"].n_inv(s)

    h = 1 / 16
    full = (np.arange(16) + 0.5) * h
    half = np.arange(1, 33) * (h / 2.0)
    sol = dl.CharacteristicSolution(fam, (None, g))
    v_full = v_char_profile(sol, 0.3, full)
    v_half = v_char_profile(sol, 0.3, half)
    assert calls == [(16, 21), (32, 21)]
    assert np.array_equal(v_full, v_char_profile(dl.CharacteristicSolution(fam, (None, g)),
                                                 0.3, full))
    assert np.array_equal(v_half, v_char_profile(dl.CharacteristicSolution(fam, (None, g)),
                                                 0.3, half))
    calls.clear()
    assert np.array_equal(v_char_profile(sol, 0.3, full), v_half[::2])
    seg = sol.segment_integral(0.3, half[3:9], half[4:10])
    assert calls == []
    assert np.array_equal(seg, np.diff(v_half[3:10]) / 0.5)


# -- product mu: closed form for x alone, one shared ladder for y alone -------

@pytest.mark.parametrize("a,eps", [(0.5, 0.0), (0.5, 0.01), (-1.5, 0.1), (0.9, 1.0)])
def test_x_only_mu_is_chi_in_closed_form(a, eps):
    """For mu^(-1) = m^(-1)(x), v = (1-a) m^(-1)(x) chi(y) and the
    y-resistances are m^(-1)(x) (chi(y1) - chi(y0)), bit for bit, and each
    matches a scalar scipy ``quad`` of its own column to 1e-12."""
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    fam = dl.WeightFamily(a, eps)

    def m_inv(x):
        return 1.0 / (1.0 + 0.1 * x * x)

    w = dl.RhoWeight(fam, (m_inv, None))
    x = -1.0 + (np.arange(g.nx) + 0.5) * g.h
    ys = (np.arange(g.ny) + 0.5) * g.h
    y0 = np.broadcast_to(np.r_[0.0, ys], (g.nx, g.ny + 1))
    y1 = np.broadcast_to(np.r_[ys, 1.0], (g.nx, g.ny + 1))
    R = w.resistance_y(x, ys, y0, y1)
    assert np.array_equal(R, m_inv(x)[:, None] * (dl.chi(fam, y1) - dl.chi(fam, y0)))
    v = v_char_profile(w.sol, x, ys)
    assert np.array_equal(v, (1.0 - a) * (m_inv(x)[:, None] * dl.chi(fam, ys)))

    def column_quad(xk, s0, s1):
        if eps == 0.0 and s0 == 0.0:    # s^(-a) as the algebraic weight of QUADPACK's qaws
            return quad(lambda s: m_inv(xk), s0, s1, weight="alg", wvar=(-a, 0.0),
                        epsabs=0.0, epsrel=1e-13)[0]
        return quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * m_inv(xk), s0, s1,
                    epsabs=0.0, epsrel=1e-13, limit=200)[0]

    for k in (0, 5, g.nx - 1):
        want = [column_quad(x[k], s0, s1) for s0, s1 in zip(y0[k], y1[k])]
        np.testing.assert_allclose(R[k], want, rtol=1e-12, atol=0.0)
        want = [(1.0 - a) * column_quad(x[k], 0.0, y) for y in ys]
        np.testing.assert_allclose(v[k], want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01, 0.0])
def test_fermi_ladder_matches_quad(eps):
    """For the fermi-demo circle (radius 2, speed 2), mu^(-1) =
    1 / (2 (1 - y/2)) depends on y alone: N on the half-spacing ladder of
    h = 1/32, shared by every column, matches a scalar scipy ``quad`` over
    [0, y] to 1e-12 at every ordinate."""
    a = 0.5
    curve = dl.EmbeddedCurve.circle(2.0, arc=2.0, theta0=-0.5)

    def n_inv(y):
        return 1.0 / dl.fermi_mu(curve, 0.0, y)

    sol = dl.CharacteristicSolution(dl.WeightFamily(a, eps), (None, n_inv))
    ladder = np.arange(1, 65) / 64
    N = sol.integral(ladder)
    if eps == 0.0:
        want = [quad(n_inv, 0.0, y, weight="alg", wvar=(-a, 0.0), epsabs=0.0,
                     epsrel=1e-13)[0] for y in ladder]
    else:
        want = [quad(lambda s: (eps * eps + s * s) ** (-a / 2.0) * n_inv(s), 0.0, y,
                     epsabs=0.0, epsrel=1e-13, limit=200)[0] for y in ladder]
    np.testing.assert_allclose(N, want, rtol=1e-12, atol=0.0)
