"""Quotient transform, auxiliary right-hand side, and derivation residuals."""

import warnings

import numpy as np
import pytest

import degenlab as dl
from degenlab.ratio import aux_residual


def wave(x, y):
    return np.cos(np.pi * x / 2.0) * (1.0 + 0.5 * y * y)


def make_manufactured(a):
    """u = y|y|^{-a} * wave with the analytic quotient forcing (hand oracle).

    The quotient w = wave solves -div(y^b grad w) = y^b fbar with b = 2-a and
    fbar = cos(pi x/2) [pi^2/4 (1+y^2/2) - (b+1)].
    """
    fam = dl.WeightFamily(a, 0.0)
    sol = dl.CharacteristicSolution(fam)
    b = 2.0 - a

    def fbar(x, y):
        return np.cos(np.pi * x / 2.0) * (np.pi ** 2 / 4.0 * (1 + 0.5 * y * y) - (b + 1.0))

    def u_exact(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * wave(x, np.abs(y))

    def f(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * fbar(x, np.abs(y))

    return dl.OddProblem(sol=sol, spec=dl.OperatorSpec(), f=f, u_exact=u_exact)


def test_ratio_of_v_is_one():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    fam = dl.WeightFamily(0.4, 0.2)
    sol = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 1.0 / (1 + 0.1 * x * x))
    u = dl.DiscreteField(g, dl.v_char(sol, g.centers[:, 0], g.centers[:, 1]), "odd")
    w = dl.ratio_field(u, sol)
    assert w.parity == "even"
    assert np.max(np.abs(w.values - 1.0)) < 1e-9


def test_ratio_a0_divides_by_y():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.0, 0.0))
    u = dl.DiscreteField.sample(g, lambda x, y: y * (x + 2.0), "odd")
    w = dl.ratio_field(u, sol)
    want = dl.DiscreteField.sample(g, lambda x, y: x + 2.0, "even")
    assert np.max(np.abs(w.values - want.values)) < 1e-12


def test_ratio_power_cosine():
    a = 0.3
    g = dl.build_half_grid(1, "half_rectangle", 1 / 8)
    sol = dl.CharacteristicSolution(dl.WeightFamily(a, 0.0))
    u = dl.DiscreteField.sample(
        g, lambda x, y: np.copysign(np.abs(y) ** (1 - a), y) * np.cos(x), "odd")
    w = dl.ratio_field(u, sol)
    want = dl.DiscreteField.sample(g, lambda x, y: np.cos(x), "even")
    assert np.max(np.abs(w.values - want.values)) < 1e-12


def test_reconstruct_round_trip():
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    sol = dl.CharacteristicSolution(dl.WeightFamily(-0.8, 0.05))
    rng_vals = np.cos(np.arange(g.ncells) * 0.7)     # deterministic 'random' even field
    w = dl.DiscreteField(g, rng_vals, "even")
    u = dl.reconstruct(w, sol)
    w2 = dl.ratio_field(u, sol)
    assert u.parity == "odd"
    assert np.max(np.abs(w2.values - w.values)) < 1e-12


def test_auxiliary_rhs_trivial_cases():
    fam = dl.WeightFamily(0.5, 0.1)
    sol = dl.CharacteristicSolution(fam)           # mu == 1
    bundle = dl.auxiliary_rhs(dl.OperatorSpec(), sol, f=lambda x, y: y)
    assert bundle.b_tildeA(0.3, 0.4) == 0.0
    assert bundle.b_identity(0.3, 0.4) == 0.0
    assert bundle.T_bar(0.3, 0.4) == 0.0
    assert not bundle.has_drift_terms
    # f = v * g  ->  fbar = g exactly
    g_fn = lambda x, y: np.cos(x) + y
    bundle2 = dl.auxiliary_rhs(
        dl.OperatorSpec(), sol,
        f=lambda x, y: dl.v_char(sol, x, y) * g_fn(x, y))
    assert bundle2.f_bar(0.2, 0.6) == pytest.approx(g_fn(0.2, 0.6), rel=1e-10)


def test_auxiliary_rhs_grad_x_matches_fd():
    fam = dl.WeightFamily(0.0, 0.0)
    sol = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 1.0 / (1.0 + x * x * s))
    bundle = dl.auxiliary_rhs(dl.OperatorSpec(), sol)
    x, y = 1.0, 0.5
    step = 1e-5
    fd = (dl.v_char(sol, x + step, y) - dl.v_char(sol, x - step, y)) / (2 * step)
    got = bundle.b_identity(x, y) * dl.v_char(sol, x, y)
    assert got == pytest.approx(fd, abs=1e-8)
    # mu b_tilde grad_x v / v, mu = 1 / mu_inverse read from the solution
    assert bundle.b_tildeA(x, y) == pytest.approx((1.0 + x * x * y) * bundle.b_identity(x, y),
                                                  rel=1e-14)


def test_aux_residual_evaluates_grad_x_once_per_point(monkeypatch):
    """grad_x v / v is evaluated once per cell centre and x-face: the drift
    and the zero-order term share one value per centre.  Each call takes an
    array of points, so the points are counted."""
    import degenlab.ratio as ratio

    fam = dl.WeightFamily(0.5, 0.1)
    sol = dl.CharacteristicSolution(fam, mu_inverse=lambda x, s: 1.0 / (1.0 + 0.1 * x * x))
    prob = dl.OddProblem(sol=sol, spec=dl.OperatorSpec(),
                         trace=lambda x, y: dl.v_char(sol, x, y) * wave(x, abs(y)))
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    n_xfaces = int(np.sum(ratio.assemble_auxiliary(g, prob).faces.axis < g.n))
    calls = []
    grad_x = ratio.v_char_grad_x

    def counting(sol, x, y):
        calls.append(np.size(y))
        return grad_x(sol, x, y)

    monkeypatch.setattr(ratio, "v_char_grad_x", counting)
    aux_residual(prob, g)
    assert sum(calls) == g.ncells + n_xfaces


def _field_problem():
    """A quadratic-mu problem with a field F that vanishes on the plane."""
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                    mu_inverse=lambda x, s: 1.0 / (1.0 + 0.1 * x * x))
    return dl.OddProblem(sol=sol, spec=dl.OperatorSpec(),
                         F=lambda x, y: (0.1 * y, 0.2 * y),
                         trace=lambda x, y: dl.v_char(sol, x, y) * wave(x, abs(y)))


def test_aux_residual_with_field_is_finite():
    """F / v is 0 / 0 on the plane faces, whose flux weight rho v^2 is 0:
    the quotient field is set to 0 there, not nan."""
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = aux_residual(_field_problem(), g)
    assert np.isfinite(res)


def test_aux_residual_with_field_shares_grad_x(monkeypatch):
    """With a field F the load's -Fbar.grad(v)/v reads grad_x v at the cell
    centres from the values the drift already integrated: one call at the
    centres, one at the x-faces."""
    import degenlab.ratio as ratio

    prob = _field_problem()
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    n_xfaces = int(np.sum(ratio.assemble_auxiliary(g, prob).faces.axis < g.n))
    calls = []
    grad_x = ratio.v_char_grad_x

    def counting(sol, x, y):
        calls.append(np.size(y))
        return grad_x(sol, x, y)

    monkeypatch.setattr(ratio, "v_char_grad_x", counting)
    aux_residual(prob, g)
    assert calls == [g.ncells, n_xfaces] == [512, 528]


def test_auxiliary_rhs_rejects_bad_t():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1))
    spec = dl.OperatorSpec(t_field=lambda x, y: 1.0 + y)
    with pytest.raises(ValueError):
        dl.auxiliary_rhs(spec, sol)


def test_auxiliary_rhs_rejects_t_nonzero_for_negative_x():
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1))
    spec = dl.OperatorSpec(t_field=lambda x, y: np.where(x < 0, 5.0, 0.0))
    with pytest.raises(ValueError, match="T\\(x,0\\) must vanish"):
        dl.auxiliary_rhs(spec, sol)


@pytest.mark.parametrize("a", [0.5, -1.5])
def test_manufactured_residual_decays(a):
    prob = make_manufactured(a)
    r32 = aux_residual(prob, dl.build_half_grid(1, "half_rectangle", 1 / 32))
    r64 = aux_residual(prob, dl.build_half_grid(1, "half_rectangle", 1 / 64))
    assert r32 / r64 >= 3.0, (a, r32, r64)


def test_verify_ratio_equation_passes_manufactured():
    prob = make_manufactured(0.5)
    res, ok = dl.verify_ratio_equation(prob, dl.build_half_grid(1, "half_rectangle", 1 / 32))
    assert ok and res < 1e-2


def test_verify_ratio_equation_solved_path():
    a = 0.5
    sol = dl.CharacteristicSolution(dl.WeightFamily(a, 0.0))

    def trace(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * wave(x, np.abs(y))

    prob = dl.OddProblem(sol=sol, spec=dl.OperatorSpec(), trace=trace)
    res, ok = dl.verify_ratio_equation(prob, dl.build_half_grid(1, "half_rectangle", 1 / 32))
    assert ok


def test_variable_mu_residual_stable_in_eps():
    a = -1.5

    def mu_inv(x, s):
        return 1.0 / (1.0 + 0.1 * x * x)

    out = {}
    for eps in (0.1, 0.01):
        fam = dl.WeightFamily(a, eps)
        sol = dl.CharacteristicSolution(fam, mu_inv)
        spec = dl.OperatorSpec()

        def trace(x, y, s=sol):
            return dl.v_char(s, x, y) * wave(x, abs(y))

        prob = dl.OddProblem(sol=sol, spec=spec, trace=trace)
        rs = []
        for h in (1 / 8, 1 / 16):
            rs.append(aux_residual(prob, dl.build_half_grid(1, "half_rectangle", h)))
        out[eps] = rs[1] / (1 / 16) ** 2        # the constant C in res <= C h^2
        assert rs[0] > rs[1]
    c1, c2 = out[0.1], out[0.01]
    assert max(c1, c2) <= 5.0 * min(c1, c2)     # C stable across eps


def test_super_degeneracy_of_quotient_weight():
    # rho v^2 / y^2 at y = h/2 approaches a positive limit (eps > 0) resp.
    # behaves like y^{-a} relative to |y|^{2} (eps = 0)
    a = 0.5
    for eps, power in ((0.5, 2.0), (0.0, 2.0 - a)):
        fam = dl.WeightFamily(a, eps)
        sol = dl.CharacteristicSolution(fam)
        ratios = []
        for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64):
            w = dl.AuxiliaryWeight(sol)
            y = h / 2
            ratios.append(float(w.values(0.0, np.array([y]))[0]) / y ** power)
        spread = max(ratios) / min(ratios)
        assert spread < 1.6, (eps, ratios)
        assert all(r > 0 for r in ratios)
