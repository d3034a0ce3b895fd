"""Error-controlled minimization: soundness, monotonicity, reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import degenlab as dl


def quartic_true_min(coeffs, lo, hi):
    """Oracle: global min of a quartic on [lo, hi] via the cubic's exact roots."""
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    cands = [lo, hi]
    for r in dp.roots():
        if abs(r.imag) < 1e-12 and lo <= r.real <= hi:
            cands.append(float(r.real))
    return min(p(c) for c in cands)


def test_trivial_targets():
    r = dl.certify_infimum(lambda t: t * t, (-1.0, 1.0), -0.1)
    assert r.passed and -0.1 <= r.certified_infimum_lower_bound <= 0.0
    r2 = dl.certify_infimum(np.sin, (0.0, 2 * math.pi), -1.5)
    assert r2.passed
    assert r2.certified_infimum_lower_bound == pytest.approx(-1.0, abs=0.01)


def test_phi_minus_one_interval():
    r = dl.certify_infimum(lambda t: dl.phi_big(-1.0, t), (1e-3, 100.0), -0.25,
                           target_id="phi[-1]")
    # brute-force oracle before trusting the certificate
    ts = np.geomspace(1e-3, 100.0, 1_000_000)
    brute = float(np.min(dl.phi_big(-1.0, ts)))
    assert r.passed
    assert r.certified_infimum_lower_bound <= brute <= r.min_sample


def test_failure_is_decided_with_witness():
    r = dl.certify_infimum(lambda t: t, (-1.0, 1.0), 0.0)
    assert r.status == "decided" and not r.passed
    assert r.min_sample <= 0.0


def test_budget_validation():
    with pytest.raises(ValueError):
        dl.certify_infimum(lambda t: t * t, (-1.0, 1.0), -1.0, budget=10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
def test_sound_bounds_on_random_quartics(c):
    c = list(c)
    c[4] = abs(c[4]) + 0.2          # keep it a genuine quartic, bounded below
    lo, hi = -2.0, 2.0
    true_min = quartic_true_min(c, lo, hi)
    p = np.polynomial.Polynomial(c)
    loose = dl.certify_infimum(p, (lo, hi), true_min - 10.0, budget=2000)
    assert loose.certified_infimum_lower_bound <= true_min + 1e-9
    assert true_min <= loose.min_sample + 1e-9
    # a threshold 0.02 under the true minimum can only be decided by refining
    # until the certified gap closes below 0.02 (min samples never reach it)
    tight = dl.certify_infimum(p, (lo, hi), true_min - 0.02, budget=300_000)
    assert tight.status == "decided" and tight.passed
    assert tight.certified_infimum_lower_bound <= true_min + 1e-9
    assert true_min - tight.certified_infimum_lower_bound < 0.02 + 1e-9


def test_reproducibility_bit_identical():
    f = lambda t: np.cos(5 * t) + 0.1 * t * t
    r1 = dl.certify_infimum(f, (-3.0, 3.0), -2.0, budget=5000)
    r2 = dl.certify_infimum(f, (-3.0, 3.0), -2.0, budget=5000)
    assert r1 == r2


def test_rectangle_certification():
    r = dl.certify_infimum(lambda x, y: x * x + 0.5 * y * y + 0.1,
                           ((-1.0, 1.0), (-1.0, 1.0)), 0.0, budget=200_000)
    assert r.passed
    assert 0.0 < r.certified_infimum_lower_bound <= 0.1


def test_certify_refuses_non_broadcasting_targets():
    calls = []

    def scalar_only(t):
        calls.append(1)
        return math.sin(t)

    with pytest.raises((TypeError, ValueError)):
        dl.certify_infimum(scalar_only, (0.0, 1.0), -2.0)
    assert len(calls) == 1                  # no per-point retry
    with pytest.raises(ValueError, match="constant_target"):
        dl.certify_infimum(lambda t: 1.0, (0.0, 1.0), 0.0, target_id="constant_target")
    with pytest.raises(ValueError, match="row_target"):
        dl.certify_infimum(lambda a, t: t[0], ((0.0, 1.0), (0.0, 1.0)), 0.0,
                           target_id="row_target")


def test_verify_phi_bound_targets():
    reps = dl.verify_phi_bound([0.9, 0.5, 0.0, -1.0, -3.0, -10.0])
    for rep in reps:
        assert rep.passed, rep.record()
        assert rep.certified_infimum_lower_bound > -0.25
    # a = 0: the whole function is the constant 2
    rep0 = [r for r in reps if "a=0]" in r.target_id][0]
    assert rep0.min_sample == pytest.approx(2.0, abs=1e-9)


def test_verify_phi_bound_refuses_overflowing_exponents():
    """Below PHI_A_MIN = 1 - log10(float max)/6 (about -50.376) the probe's
    t^(1-a) overflows at t = 1e6: such an a is a ValueError, not a
    'non-finite sample' crash; just above the bound the certificate runs."""
    from degenlab.certify import PHI_A_MIN
    assert PHI_A_MIN == pytest.approx(-50.3758, abs=1e-4)
    (rep,) = dl.verify_phi_bound([-50.3], budget=20_000)
    assert rep.passed and math.isfinite(rep.certified_infimum_lower_bound), rep.record()
    with pytest.raises(ValueError, match="overflows"):
        dl.verify_phi_bound([-50.4], budget=20_000)


def test_verify_v_inequality():
    rep = dl.verify_v_inequality()
    assert rep.passed
    # direct endpoint oracles
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    assert dl.v_limit(s2) - (1 - 2 / 2.0) > 0.7
    assert dl.v_limit(s6) - (1 - 2 / 6.0) > 0.0


def test_gamma_rectangle_exact_form_passes():
    rep = dl.verify_gamma_rectangle(form="exact")
    assert rep.status == "decided"
    assert rep.passed
    assert rep.certified_infimum_lower_bound > 0.0


def test_gamma_rectangle_corner_positive():
    # corner oracle of the v-form expression
    assert dl.gamma_v_bound(-2.96767, 1.0) > 0.0
    # a -> -inf along t=1: quadratic growth, the 2 a^2 (v(1)-1/2)^2 term
    # keeping the a^2 coefficient positive (v(1) != 1/2)
    g50 = dl.gamma_v_bound(-50.0, 1.0)
    g100 = dl.gamma_v_bound(-100.0, 1.0)
    assert 0.0 < g50 < g100
    assert g100 / g50 == pytest.approx(4.0, rel=0.15)


def test_gamma_rectangle_v_bound_form_has_interior_witness():
    """The v-form reduction is genuinely negative inside the rectangle.

    This documents why the published-rectangle certification of the v-form
    cannot pass: the exact certificate (form='exact') is positive there, but
    replacing its profile by the limit profile v loses positivity near
    a ~ -18, t ~ 2.4."""
    rep = dl.verify_gamma_rectangle(form="v_bound")
    assert rep.status == "decided"
    assert not rep.passed
    assert rep.min_sample < 0.0
    a_w, t_w = rep.argmin
    assert -43.3272 <= a_w <= -2.96767 and 1.0 <= t_w <= 5.1
    # and the exact form is positive at the same witness
    assert dl.gamma_small(a_w, t_w) > 0.0


def test_record_format():
    rep = dl.certify_infimum(lambda t: t * t + 1.0, (-1.0, 1.0), 0.0, budget=1500)
    rec = rep.record()
    assert rec.startswith("infimum domain=[-1,1]")
    assert "pass=yes" in rec
