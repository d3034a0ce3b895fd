"""Weight family, characteristic integrals, and ratio functions."""

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
                                    mu_inverse=lambda x, s: 1.0 / (1.5 + np.sin(3 * s)))
    ys = np.linspace(0.01, 1.0, 17)
    assert all(dl.v_char(sol, 0.2, y) > 0 for y in ys)


def test_quadrature_error_carries_value_and_abserr():
    """A segment quad cannot resolve raises with the value and error
    estimate it reached; the value is within that estimate of the integral."""
    a, c = -0.5, 1e-3
    sol = dl.CharacteristicSolution(
        dl.WeightFamily(a, 0.0), mu_inverse=lambda x, s: 1.0 + c * x * np.sin(1e5 * s))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(dl.QuadratureError) as exc:
            dl.v_char(sol, 0.5, 0.7)
    # int_0^y s^(1/2) ds, plus 0.5 c int_0^y s^(1/2) sin(1e5 s) ds, |.| < 1e-5
    exact = 0.7 ** 1.5 / 1.5
    assert exc.value.abserr > 10 * QUADRATURE_TOL * abs(exc.value.value)
    assert abs(exc.value.value - exact) <= exc.value.abserr + 1e-5 * c


def test_characteristic_solution_rejects_a_non_numeric_tolerance():
    """The solution takes two fields: a third argument (an x-derivative of
    mu^(-1), say) fails at construction, not in a quadrature."""
    fam = dl.WeightFamily(0.5, 0.1)
    with pytest.raises(TypeError, match="positional argument"):
        dl.CharacteristicSolution(fam, lambda x, s: 1.0, lambda x, s: 0.0)


def _gamma_ratio(a, eps, mu_inverse, x, y):
    """v(x, y) / ((1-a) chi(y)), the rho^(-a)-average of mu^(-1) over (0, y)."""
    fam = dl.WeightFamily(a, eps)
    return dl.v_char(dl.CharacteristicSolution(fam, mu_inverse), x, y) / ((1.0 - a) * dl.chi(fam, y))


def test_gamma_ratio_values_and_limits():
    assert _gamma_ratio(0.3, 0.2, None, 0.0, 0.5) == pytest.approx(1.0, rel=1e-15)
    got = _gamma_ratio(0.0, 0.0, lambda x, s: 1.0 / (1.0 + s), 0.0, 1.0)
    assert got == pytest.approx(math.log(2.0), rel=1e-10)
    # y -> 0+ limit equals mu^{-1}(x, 0) for three sampled fields
    for mu_inv in (lambda x, s: 1.0 / (1.0 + s),
                   lambda x, s: 2.0 / (2.0 + s * s),
                   lambda x, s: 1.0 / (1.5 + np.sin(s))):
        want = mu_inv(0.0, 0.0)
        assert _gamma_ratio(0.5, 0.1, mu_inv, 0.0, 1e-9) == pytest.approx(want, rel=1e-6)


def test_gamma_ratio_holder_uniformity_across_eps():
    """Discrete alpha-seminorm of v / ((1-a) chi) stays within 3x of its eps=1 value."""
    alpha = 0.5

    def mu_inv(x, s):
        return 1.0 / (1.0 + 0.3 * abs(s) ** alpha + 0.1 * x * x)

    grid = dl.build_half_grid(1, "half_rectangle", 1.0 / 16)
    semis = {}
    for eps in (1.0, 0.1, 0.01, 0.0):
        fld = dl.DiscreteField.sample(
            grid, lambda x, y, e=eps: _gamma_ratio(0.5, e, mu_inv, x, abs(y)), "even")
        semis[eps] = dl.holder_seminorm(fld, alpha, dl.Region(1.0, 1.0))
    for eps, s in semis.items():
        assert s <= 3.0 * semis[1.0] + 1e-12, (eps, semis)


def test_segment_memo_is_isolated():
    """The segment memo serves only its own solution."""
    fam = dl.WeightFamily(0.5, 0.1)

    def mu_inv(x, s):
        return 1.0 / (1.0 + x * x * s)

    ys = np.linspace(0.05, 1.0, 20)
    sol = dl.CharacteristicSolution(fam, mu_inverse=mu_inv)
    v = v_char_profile(sol, 0.7, ys)
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


# -- the vectorised dqk21 pass against scipy quad -----------------------------

_MU_INVERSES = {
    "constant": lambda x, s: 0.8,
    "quadratic": lambda x, s: 1.0 / (1.0 + 0.1 * x * x + 0.5 * s * s),
    "oscillating": lambda x, s: 1.0 / (1.5 + np.sin(40.0 * s)),
}


@pytest.mark.parametrize("mu", sorted(_MU_INVERSES))
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.01, 1.0])
@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5, 0.9])
def test_column_rule_matches_quad(a, eps, mu):
    """Each segment of a column, the first one at y0 = 0 included, equals the
    scalar ``quad`` value: the dqk21 pass returns quad's own first pass when
    it is accepted and defers to quad when it is not."""
    fam = dl.WeightFamily(a, eps)
    g = _MU_INVERSES[mu]
    ys = (np.arange(16) + 0.5) / 16
    y0, y1 = np.r_[0.0, ys[:-1]], ys
    col = dl.CharacteristicSolution(fam, g).segment_integrals(0.3, y0, y1)
    one = dl.CharacteristicSolution(fam, g)
    want = np.array([one._quad(0.3, s0, s1) for s0, s1 in zip(y0, y1)])
    assert np.allclose(col, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("a,eps,mu_inverse", [
    (0.5, 0.1, lambda x, s: 1.0 + 100.0 * np.exp(-((s - 0.3) / 0.01) ** 2)),   # steep mu
    (0.9, 1e-3, lambda x, s: 1.0 / (1.0 + s * s)),        # rho^(-a) steep near 0
])
def test_rejected_segments_take_the_quad_fallback(monkeypatch, a, eps, mu_inverse):
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
    want = [dl.CharacteristicSolution(fam, mu_inverse)._quad(0.0, s0, s1)
            for s0, s1 in zip(y0, y1)]
    monkeypatch.setattr(weights, "quad", counting)
    got = dl.CharacteristicSolution(fam, mu_inverse).segment_integrals(0.0, y0, y1)
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
    def scalar_only(x, s):
        return 1.0 / (1.5 + math.sin(s))

    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse=scalar_only)
    with pytest.raises(ValueError, match="mu_inverse sampler .*scalar_only"):
        dl.v_char(sol, 0.0, 0.5)               # one point: one pass on arrays all the same
    with pytest.raises(ValueError, match="scalar_only"):
        v_char_profile(sol, 0.0, [0.25, 0.5])
    const = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse=lambda x, s: 2.0)
    assert v_char_profile(const, 0.0, [0.25, 0.5]) == pytest.approx(
        2.0 * (1 - 0.5) * dl.chi(dl.WeightFamily(0.5, 0.1), np.array([0.25, 0.5])), rel=1e-12)


def test_sampler_must_broadcast_over_x():
    """A sampler that takes a scalar x only fails the whole-grid pass, in the
    resistances and in mu_at, with a ValueError naming it."""
    def cos_column(x, s):
        return 1.0 / (1.5 + math.cos(x)) + 0.0 * s

    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    with pytest.raises(ValueError, match="cos_column"):
        dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.5, 0.1), cos_column))
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), cos_column)
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
    """The y-resistances of a grid, integrated in one dqk21 pass with one
    sampler call on arrays of x (a tuple of them for n = 2), equal a scalar
    ``quad`` of each segment to 1e-13 relative and land between the cells of
    their own column in the matrix; v on the cell centres of all columns
    equals the profile of each column alone.  mu^(-1) depends on x; eps = 0
    with a > 0 takes the substitution on the segments from the plane, and
    the half disk has columns of different heights.  At a = 0.9, eps = 1e-3
    some segments fail qags's test and take the scalar ``quad`` fallback.
    mu^(-1) takes 1 + n calls on arrays: the resistances, then mu =
    1 / mu^(-1) on the x-faces of each axis."""
    calls = []

    def mu_inv(x, s):
        if np.ndim(s):          # not a scalar call of quad
            calls.append(x)
        return 1.0 / (1.5 + 0.3 * _tilt(x) + 0.5 * s * s)

    n, shape, h = grid
    g = dl.build_half_grid(n, shape, h)
    fam = dl.WeightFamily(a, eps)
    w = dl.RhoWeight(fam, mu_inv)
    seen = []
    resistance_y = dl.RhoWeight.resistance_y

    def recording(self, x, ys, y0, y1):
        out = resistance_y(self, x, ys, y0, y1)
        seen.append((x, y0, y1, out))
        return out

    monkeypatch.setattr(dl.RhoWeight, "resistance_y", recording)
    op = dl.assemble(g, w, parity="odd")
    assert len(seen) == 1 and len(calls) == 1 + n
    x, y0, y1, got = seen[0]
    assert isinstance(calls[0], tuple) == (n == 2)
    ask = ~np.isnan(y0)
    cols = x if n == 2 else (x,)
    one = dl.CharacteristicSolution(fam, mu_inv)
    want = [one._quad(k[0] if n == 1 else k, s0, s1) for k, s0, s1 in
            zip(zip(*(np.broadcast_to(c[:, None], y0.shape)[ask] for c in cols)),
                y0[ask], y1[ask])]
    np.testing.assert_allclose(got[ask], want, rtol=1e-13, atol=0.0)
    ys = (np.arange(g.ny) + 0.5) * h
    dof = {tuple(c): i for i, c in enumerate(g.centers.tolist())}
    for r, k in zip(*np.nonzero(ask & np.isin(y0, ys) & np.isin(y1, ys))):   # inner faces
        xr = tuple(c[r] for c in cols)
        tau = -op.matrix[dof[xr + (y0[r, k],)], dof[xr + (y1[r, k],)]]
        assert tau == pytest.approx(h ** n / got[r, k], rel=1e-13)
    if shape == "half_disk":
        assert len(set(np.count_nonzero(ask, axis=1))) > 1
    v = v_char_profile(dl.CharacteristicSolution(fam, mu_inv), x, ys)
    for k, xk in enumerate(zip(*cols)):
        alone = v_char_profile(dl.CharacteristicSolution(fam, mu_inv), xk[0] if n == 1 else xk, ys)
        assert np.array_equal(v[k], alone)


def test_runs_break_where_the_column_changes():
    """Segments of two columns that chain in y are two runs, each integrated
    in its own column and stored as that column's ladder."""
    fam = dl.WeightFamily(0.5, 0.1)

    def mu_inv(x, s):
        return 1.0 / (1.0 + 0.3 * x * x + 0.5 * s * s)

    x = np.array([0.1, 0.1, 0.7, 0.7])
    y0, y1 = np.array([0.0, 0.25, 0.5, 0.75]), np.array([0.25, 0.5, 0.75, 1.0])
    sol = dl.CharacteristicSolution(fam, mu_inv)
    got = sol.segment_integrals(x, y0, y1)
    one = dl.CharacteristicSolution(fam, mu_inv)
    want = [one._quad(*args) for args in zip(x, y0, y1)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert [lad.edges.tolist() for lad in sol._memo[0.1].ladders] == [[0.0, 0.25, 0.5]]
    assert [lad.edges.tolist() for lad in sol._memo[0.7].ladders] == [[0.5, 0.75, 1.0]]


# -- per-column ladders --------------------------------------------------------

_LADDER_MU_INVERSES = {
    "quadratic": lambda x, s: 1.0 / (1.0 + 0.1 * x * x),
    "y-dependent": lambda x, s: 1.0 / (2.0 * (1.0 - s / 2.0)),
}


@pytest.mark.parametrize("mu", sorted(_LADDER_MU_INVERSES))
@pytest.mark.parametrize("eps", [0.0, 0.01, 1.0])
@pytest.mark.parametrize("a", [-0.5, 0.5, 0.9])
def test_v_char_at_ladder_edges_reads_the_cumulative_sum(a, eps, mu):
    """v at every edge of a column's resistance ladder (cell centres and the
    top face) is read from the ladder without sampling mu^(-1) again, and
    equals a fresh quad over [0, y]."""
    g = _LADDER_MU_INVERSES[mu]
    calls = []

    def counting(x, s):
        calls.append(np.shape(s))
        return g(x, s)

    fam = dl.WeightFamily(a, eps)
    ys = (np.arange(16) + 0.5) / 16
    y0, y1 = np.r_[0.0, ys], np.r_[ys, 1.0]
    sol = dl.RhoWeight(fam, counting).sol
    sol.segment_integrals(0.3, y0, y1)          # the ladder 0, ys, 1 of a column
    calls.clear()
    got = dl.v_char(sol, 0.3, y1)
    assert calls == []
    want = np.array([(1.0 - a) * dl.CharacteristicSolution(fam, g)._quad(0.3, 0.0, y)
                     for y in y1])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # the profile at the cell centres is the same cumulative sum
    assert np.array_equal(v_char_profile(sol, 0.3, ys), got[:-1])


def test_v_char_off_the_ladders_takes_one_pass():
    """v at points off every stored ladder, in several columns and of both
    signs, takes one sampler call on arrays for all of them (and scalar
    quad for the segments that pass rejects), equals a scalar quad of each
    to 1e-13 relative, and is kept: asking again samples nothing."""
    fam = dl.WeightFamily(0.5, 0.1)
    calls = []

    def mu_inv(x, s):
        calls.append(np.shape(s))
        return 1.0 / (1.0 + 0.1 * x * x + 0.5 * s * s)

    x = np.array([-0.7, -0.7, 0.2, 0.9, 0.9])
    y = np.array([0.3, -0.55, 0.8, 0.05, 1.0])
    sol = dl.CharacteristicSolution(fam, mu_inv)
    got = dl.v_char(sol, x, y)
    assert [c for c in calls if c] == [(len(x), 21)]
    want = [np.sign(yk) * 0.5 * sol._quad(xk, 0.0, abs(yk)) for xk, yk in zip(x, y)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    calls.clear()
    assert np.array_equal(dl.v_char(sol, x, y), got) and calls == []
    assert dl.v_char(sol, x[2], y[2]) == got[2] and calls == []


def test_full_and_half_spacing_ladders_are_integrated_apart():
    """A half-spacing ladder on a solution that already holds the
    full-spacing one is integrated on its own: each equals the values of a
    fresh solution exactly."""
    fam = dl.WeightFamily(0.5, 0.1)
    calls = []

    def g(x, s):
        calls.append(np.shape(s))
        return _LADDER_MU_INVERSES["y-dependent"](x, s)

    h = 1 / 16
    full = (np.arange(16) + 0.5) * h
    half = np.arange(1, 33) * (h / 2.0)
    sol = dl.CharacteristicSolution(fam, g)
    v_full = v_char_profile(sol, 0.3, full)
    v_half = v_char_profile(sol, 0.3, half)
    assert np.array_equal(v_full, v_char_profile(dl.CharacteristicSolution(fam, g), 0.3, full))
    assert np.array_equal(v_half, v_char_profile(dl.CharacteristicSolution(fam, g), 0.3, half))
    assert len(sol._memo[0.3].ladders) == 2
    # a run of consecutive segments of a stored ladder is its slice
    calls.clear()
    seg = sol.segment_integrals(0.3, half[3:9], half[4:10])
    assert calls == []
    assert np.array_equal(seg, sol._memo[0.3].ladders[1].seg[4:10])
    assert len(sol._memo[0.3].ladders) == 2
