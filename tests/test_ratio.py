"""Quotient transform and the residuals of its auxiliary equation."""

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

    return dl.OddProblem(sol=sol, f=f, u_exact=u_exact)


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


def _field_problem():
    """A quadratic-mu problem with a field F that vanishes on the plane."""
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                    mu_inverse=lambda x, s: 1.0 / (1.0 + 0.1 * x * x))
    return dl.OddProblem(sol=sol, F=lambda x, y: (0.1 * y, 0.2 * y),
                         trace=lambda x, y: dl.v_char(sol, x, y) * wave(x, abs(y)))


def test_aux_residual_with_field_is_finite():
    """A field F enters as v times the odd operator's load, never as F / v
    (0 / 0 on the plane faces): the residual is finite and warns of nothing."""
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = aux_residual(_field_problem(), g)
    assert np.isfinite(res)


def _quadratic_mu_inverse(x, s):
    return 1.0 / (1.0 + 0.1 * x * x)


@pytest.mark.parametrize("a", [0.5, 0.0])
@pytest.mark.parametrize("F", [None, lambda x, y: (0.1 * y, 0.2 * y)], ids=["no-F", "F"])
def test_variable_mu_residual_decays(a, F):
    """With mu varying in x, L v = -d_x(rho mu d_x v) != 0, so the quotient
    equation carries the drift (mu d_x v / v, 0); the residual still falls
    by >= 2.5 per halving of h, at a = 0 as at a = 0.5, with and without F."""
    sol = dl.CharacteristicSolution(dl.WeightFamily(a, 0.1), _quadratic_mu_inverse)
    prob = dl.OddProblem(sol=sol, F=F,
                         trace=lambda x, y: dl.v_char(sol, x, y) * wave(x, abs(y)))
    rs = [aux_residual(prob, dl.build_half_grid(1, "half_rectangle", h))
          for h in (1 / 16, 1 / 32, 1 / 64)]
    assert rs[0] / rs[1] >= 2.5 and rs[1] / rs[2] >= 2.5 and rs[2] < 0.05, rs


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


def _solved_power_problem(a):
    sol = dl.CharacteristicSolution(dl.WeightFamily(a, 0.0))

    def trace(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * wave(x, np.abs(y))

    return dl.OddProblem(sol=sol, trace=trace)


def test_verify_ratio_equation_solved_path():
    prob = _solved_power_problem(0.5)
    res, ok = dl.verify_ratio_equation(prob, dl.build_half_grid(1, "half_rectangle", 1 / 32))
    assert ok


def test_residual_leaves_out_the_cells_with_an_outer_face():
    """At h = 1/4, the coarse grid of verify_ratio_equation at h = 1/8, the
    cells with an outer face lie inside INTERIOR_MARGIN.  Both operators
    carry Dirichlet terms without a trace there, which would read about 1.1;
    the residual leaves those cells out."""
    prob = _solved_power_problem(0.5)
    assert aux_residual(prob, dl.build_half_grid(1, "half_rectangle", 1 / 4)) < 0.05


def test_variable_mu_residual_stable_in_eps():
    """For mu^(-1) = 1 / (1 + 0.1 x^2)."""
    out = {}
    for eps in (0.1, 0.01):
        sol = dl.CharacteristicSolution(dl.WeightFamily(-1.5, eps), _quadratic_mu_inverse)

        def trace(x, y, s=sol):
            return dl.v_char(s, x, y) * wave(x, abs(y))

        prob = dl.OddProblem(sol=sol, trace=trace)
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
