"""Half grids, embedded curves, Fermi data."""

import math

import numpy as np
import pytest

import degenlab as dl


def _line(origin=(0.0, 0.0), direction=(1.0, 0.0), length=1.0):
    """The straight segment t -> origin + t length e, e the unit vector along
    direction, at a scalar t."""
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d) * length
    return dl.EmbeddedCurve(psi=lambda t: o + t * d, dpsi=lambda t: d,
                            curvature=lambda t: 0.0)


def test_half_rectangle_counts():
    g = dl.build_half_grid(1, "half_rectangle", 0.25)
    assert g.ncells == 8 * 4
    assert g.num_sigma_faces == 8


def test_half_disk_masking():
    g = dl.build_half_grid(1, "half_disk", 0.25)
    assert np.all((g.centers ** 2).sum(axis=1) <= 1.0 + 1e-12)
    full = dl.build_half_grid(1, "half_rectangle", 0.25)
    assert g.ncells < full.ncells


def test_n2_counts():
    g = dl.build_half_grid(2, "half_rectangle", 0.125)
    assert g.ncells == 16 * 16 * 8


def test_grid_validation():
    with pytest.raises(ValueError):
        dl.build_half_grid(1, "half_rectangle", 0.5)      # too coarse
    with pytest.raises(ValueError):
        dl.build_half_grid(1, "half_rectangle", 0.11)     # does not divide
    for h in (0.0, -0.25):                                # no positive spacing
        with pytest.raises(ValueError, match="must be in"):
            dl.build_half_grid(1, "half_rectangle", h)
    with pytest.raises(ValueError):
        dl.build_half_grid(2, "half_disk", 0.125)


def test_refinement_quadruples_and_nests():
    g1 = dl.build_half_grid(1, "half_rectangle", 0.125)
    g2 = dl.build_half_grid(1, "half_rectangle", 0.0625)
    assert g2.ncells == 4 * g1.ncells
    # coarse sigma-face midpoints (the bottom-row centres' x) are fine sigma-skeleton nodes
    mids = g1.centers[g1.index[:, 0], 0]
    fine_nodes = -1.0 + np.arange(2 * g2.nx + 1) * (g2.h / 2)
    for m in mids:
        assert np.min(np.abs(fine_nodes - m)) < 1e-12
    # and the coarse/fine sigma faces cover the same flat segment
    assert g1.num_sigma_faces * g1.h == pytest.approx(g2.num_sigma_faces * g2.h)


def test_no_cell_on_sigma():
    g = dl.build_half_grid(1, "half_disk", 0.0625)
    assert g.centers[:, 1].min() == pytest.approx(g.h / 2)


def test_fermi_mu_line_and_circle():
    line = _line((0.0, 0.0), (1.0, 0.0), length=1.0)
    assert dl.fermi_mu(line, 0.3, 0.7) == pytest.approx(1.0)
    circ = dl.EmbeddedCurve.circle(2.0, arc=1.0)
    assert dl.fermi_mu(circ, 0.2, 0.5) == pytest.approx(0.75)
    assert dl.fermi_mu(circ, 0.2, 0.0) == pytest.approx(circ.speed(0.2))


def test_fermi_mu_matches_chart_jacobian():
    circ = dl.EmbeddedCurve.circle(2.0, arc=2.0, theta0=0.3)
    step = 1e-5
    for t in np.linspace(0.1, 0.9, 5):
        for y in (0.0, 0.3, 0.6):
            mu = dl.fermi_mu(circ, float(t), float(y))
            zp = circ.point(float(t) + step, float(y))
            zm = circ.point(float(t) - step, float(y))
            jac = float(np.linalg.norm(zp - zm) / (2 * step))
            assert mu == pytest.approx(jac, abs=1e-6)


def test_fermi_mu_speed_at_zero_many_params():
    circ = dl.EmbeddedCurve.circle(1.7, arc=1.3, theta0=-0.4)
    for t in np.linspace(0.0, 1.0, 50):
        assert dl.fermi_mu(circ, float(t), 0.0) == pytest.approx(circ.speed(float(t)))


def test_chart_violation():
    circ = dl.EmbeddedCurve.circle(0.5, arc=1.0)
    with pytest.raises(dl.ChartError):
        dl.fermi_mu(circ, 0.5, 0.6)


def _mean_curvature_from_mu(curve, x, y, step=1e-4):
    # -(d/dy) mu / mu by central differences of mu = fermi_mu
    mup, mum = dl.fermi_mu(curve, x, y + step), dl.fermi_mu(curve, x, y - step)
    return -(mup - mum) / (2.0 * step) / dl.fermi_mu(curve, x, y)


@pytest.mark.parametrize("R", [1.0, 2.0, 5.0])
def test_mean_curvature_two_ways(R):
    """The parallel curve at height y has mean curvature
    H_y = kappa/(1 - y kappa) = -(d/dy) mu / mu, with kappa = 1/R."""
    circ = dl.EmbeddedCurve.circle(R, arc=1.0)
    for y in (0.0, min(0.5, R / 4)):
        H = circ.curvature(0.5) / (1.0 - y * circ.curvature(0.5))
        assert H == pytest.approx((1.0 / R) / (1.0 - y / R), rel=1e-9)
        assert abs(_mean_curvature_from_mu(circ, 0.5, y) - H) <= 1e-6


def test_mean_curvature_line():
    line = _line()
    assert line.curvature(0.4) == 0.0
    assert _mean_curvature_from_mu(line, 0.4, 0.2) == 0.0


def test_fermi_map_of_line_is_closed_form():
    # Z(t, y) = origin + t length e + y e_perp, e_perp the left normal of e
    line = _line((-0.5, 0.0), (1.0, 0.0), length=2.0)
    assert line.point(0.4, 0.2) == pytest.approx([0.3, 0.2], abs=1e-15)
    e = np.array([3.0, 4.0]) / 5.0
    slant = _line((1.0, -1.0), (3.0, 4.0), length=0.5)
    for t in (0.0, 0.3, 1.0):
        for y in (-0.2, 0.0, 0.7):
            want = np.array([1.0, -1.0]) + 0.5 * t * e + y * np.array([-e[1], e[0]])
            assert slant.point(t, y) == pytest.approx(want, abs=1e-15)


def test_fermi_chart_is_orthogonal_with_unit_normal():
    """d/dy Z(t, y) is the unit normal and is orthogonal to d/dt Z, so y is
    the signed distance to the curve inside the chart (|grad y| = 1)."""
    step = 1e-6
    for curve in (dl.EmbeddedCurve.circle(2.0, center=(0.3, -0.2), arc=3.0, theta0=0.2),
                  _line((1.0, -1.0), (3.0, 4.0), length=0.5)):
        for t in (0.1, 0.5, 0.9):
            for y in (-0.4, 0.0, 0.4):
                zy = (curve.point(t, y + step) - curve.point(t, y - step)) / (2 * step)
                zt = (curve.point(t + step, y) - curve.point(t - step, y)) / (2 * step)
                assert np.linalg.norm(zy) == pytest.approx(1.0, abs=1e-8)
                assert abs(zy @ zt) <= 1e-8 * np.linalg.norm(zt)
                assert np.linalg.norm(zt) == pytest.approx(dl.fermi_mu(curve, t, y), rel=1e-8)


def test_degenerate_parametrization_rejected():
    still = _line((0.2, 0.1), (1.0, 0.0), length=0.0)
    with pytest.raises(ValueError, match="degenerate"):
        still.point(0.5, 0.1)


def test_fermi_map_of_inward_circle_is_closed_form():
    # Z(t, y) sits at distance R - y from the centre, on the ray through the
    # foot psi(t): the normal points to the centre
    R, c = 2.0, np.array([0.3, -0.2])
    curve = dl.EmbeddedCurve.circle(R, center=c, arc=2.0, theta0=0.7)
    for t in (0.15, 0.5, 0.85):
        th = 0.7 + 2.0 * t / R
        for y in (-0.3, 0.0, 0.4):
            d = curve.point(t, y) - c
            assert np.linalg.norm(d) == pytest.approx(R - y, rel=1e-14)
            assert d / (R - y) == pytest.approx([math.cos(th), math.sin(th)], abs=1e-14)
