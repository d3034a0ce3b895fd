"""Trace/Hardy quotients, stability sweeps, growth monitor."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu
from scipy.special import roots_jacobi, roots_legendre

import degenlab as dl
import degenlab.spectral as spectral
from degenlab.potentials import potentials
from degenlab.spectral import (HalfDiskMesh, _conjugated_forms, _hardy_factors,
                               _separable_eigen, _trace_factors, assemble_arc_mass,
                               assemble_forms)
from degenlab.weights import rho


def _rho(b, eps):
    """rho of the family (b, eps) as a function of y alone."""
    return lambda y: rho(dl.WeightFamily(b, eps), y)

H_COARSE = 1 / 16
H_MID = 1 / 32


def test_trace_eigen_unweighted():
    r = dl.trace_eigen(0.0, 0.0, H_MID)
    assert r.lam == pytest.approx(1.0, abs=0.01)
    assert r.residual <= 1e-8


def test_trace_eigen_sharp_constants():
    for b in (0.5, -0.5):
        r = dl.trace_eigen(b, 0.0, H_MID)
        assert r.lam == pytest.approx(1.0 - b, abs=0.05)
        assert r.lam >= 1.0 - b - 1e-9          # conformity: discrete >= continuum


def test_trace_eigen_supersingular_exponents():
    for b, want in ((-1.5, 2.5), (-3.0, 4.0)):
        r = dl.trace_eigen(b, 0.0, H_MID)
        assert r.route == "transformed"
        assert r.lam == pytest.approx(want, abs=0.05)
        assert r.lam >= want - 1e-9


def test_trace_routes_agree_in_integrable_range():
    mesh = HalfDiskMesh.from_h(H_MID)
    for b in (0.5, -0.5):
        d, t = (_separable_eigen(mesh, *_trace_factors(mesh, b, r))[0]
                for r in ("direct", "transformed"))
        assert d == pytest.approx(t, abs=0.02)


def test_conformity_monotone_under_refinement():
    lams = [dl.trace_eigen(0.5, 0.0, h).lam for h in (1 / 8, 1 / 16, 1 / 32)]
    assert lams[0] + 1e-8 >= lams[1] >= lams[2] - 1e-8
    assert lams[1] <= lams[0] + 1e-8


def test_rayleigh_quotient_consistency():
    r = dl.trace_eigen(0.3, 0.2, H_COARSE)
    assert r.residual <= 1e-8
    assert r.iterations >= 1


def test_hardy_flat_bracket_and_monotonicity():
    lams = [dl.hardy_quotient(None, h).lam for h in (1 / 16, 1 / 32, 1 / 64)]
    assert all(l >= 0.25 for l in lams)            # conformity lower bound
    assert lams[0] >= lams[1] >= lams[2]           # nested spaces
    assert 0.25 <= lams[2] <= 0.40


def test_hardy_weighted_stable_across_eps():
    vals = [dl.hardy_quotient(dl.WeightFamily(0.5, e), H_COARSE).lam
            for e in (0.0, 0.1, 1.0)]
    assert all(v > 0.05 for v in vals)
    assert max(vals) <= 5.0 * min(vals)


def test_eigen_sweep_constant_weight_cancels():
    rows = dl.eigen_stability_sweep(0.0, [1.0, 4.0, 16.0], H_COARSE)
    lams = [l for _, l, _ in rows]
    assert max(lams) - min(lams) < 1e-9
    assert lams[0] == pytest.approx(dl.trace_eigen(0.0, 0.0, H_COARSE).lam, abs=1e-9)


def test_eigen_sweep_rho_converges():
    rows = dl.eigen_stability_sweep(0.5, [1.0, 4.0, 16.0, 64.0], 1 / 64)
    lams = [l for _, l, _ in rows]
    assert abs(lams[-1] - 0.5) < abs(lams[0] - 0.5)
    assert abs(lams[-1] - 0.5) <= 0.05


def test_eigen_sweep_rho_requires_integrable():
    with pytest.raises(ValueError):
        dl.eigen_stability_sweep(-1.5, [1.0], H_COARSE)


def test_growth_monitor_exact_homogeneous():
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", H_MID)

    def ue(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y)

    fld = dl.DiscreteField.sample(g, ue, "odd")
    rows = dl.growth_monitor(fld, a, [0.25, 0.5, 0.75, 1.0], trace=ue)
    norm = [c for _, _, c in rows]
    assert max(norm) / min(norm) <= 1.02


def test_growth_monitor_zero_field():
    g = dl.build_half_grid(1, "half_disk", 1 / 8)
    fld = dl.DiscreteField(g, np.zeros(g.ncells), "odd")
    rows = dl.growth_monitor(fld, 0.0, [0.5, 1.0], trace=lambda x, y: 0.0 * y)
    assert all(H == 0.0 for _, H, _ in rows)
    with pytest.raises(ValueError, match="leaves the grid"):
        dl.growth_monitor(fld, 0.0, [1.0])      # the arc's stencils need the trace


def test_growth_monitor_perturbed_nondecreasing():
    """Trace = y^{1-a}(1 + 0.1 x): the perturbation x y^{1-a} is itself a
    homogeneous solution of degree 2-a (mode-decomposition oracle), so the
    normalized column is exactly monotone up to discretization."""
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", H_MID)

    def trace(x, y):
        return np.copysign(np.abs(y) ** (1 - a), y) * (1.0 + 0.1 * x)

    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")
    rep = dl.solve_linear(op, op.rhs(trace=trace))
    rows = dl.growth_monitor(rep.field, a, [0.25, 0.5, 0.75, 1.0], trace=trace)
    norm = [c for _, _, c in rows]
    assert all(n2 >= n1 * (1 - 0.02) for n1, n2 in zip(norm, norm[1:]))


def test_perturbation_mode_is_discretely_harmonic():
    # oracle for the mode decomposition: x * y^{1-a} solves the weighted
    # problem exactly in the discrete scheme as well
    a = 0.5
    g = dl.build_half_grid(1, "half_disk", 1 / 16)
    op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(a, 0.0)), parity="odd")

    def mode(x, y):
        return x * np.copysign(np.abs(y) ** (1 - a), y)

    rep = dl.solve_linear(op, op.rhs(trace=mode))
    ex = dl.DiscreteField.sample(g, mode, "odd")
    assert np.max(np.abs(rep.field.values - ex.values)) < 1e-10


@pytest.mark.parametrize("eps", [0.0, 0.5])
def test_conjugated_form_is_flat_at_a0(eps):
    """For a = 0 the conjugation by rho^(a/2) = 1 is the identity: both
    potentials vanish and the conjugated form is the flat Dirichlet form."""
    mesh = HalfDiskMesh.from_h(H_COARSE)
    K0, _ = assemble_forms(mesh, lambda y: np.ones_like(y))
    assert abs(_conjugated_forms(0.0, eps, mesh) - K0).max() == 0.0


# ---------------------------------------------------------------------------
# Eigen solves against the assembled pencils and a dense solve
# ---------------------------------------------------------------------------

def _pencil(case, mesh):
    """(K, M, free dofs) as the two-dimensional assembly builds them.  A case
    is (kind, b, eps); for Hardy b is the weight exponent, None when flat."""
    free = mesh.free_nodes()
    kind, b, eps = case
    if kind == "direct":
        wfn = _rho(b, eps)
        if eps > 0.0 or b == 0.0:
            K, _ = assemble_forms(mesh, wfn)
            return K, assemble_arc_mass(mesh, wfn), free
        K, _ = assemble_forms(mesh, wfn, sigma_jacobi_exponent=b)
        excl = [mesh.node_id(mesh.nr, 1), mesh.node_id(mesh.nr, mesh.ntheta - 1)]
        M = assemble_arc_mass(mesh, wfn, skip_sigma_adjacent=True, exclude_nodes=excl)
        return K, M, free
    if kind == "transformed":
        K = _conjugated_forms(b, eps, mesh)
        return K, assemble_arc_mass(mesh, None), free
    wfn = _rho(0.0 if b is None else b, eps)
    jac = b if b is not None and b != 0.0 and eps == 0.0 else None
    K, M = assemble_forms(mesh, wfn, mass_weight=lambda y: wfn(y) / (y * y),
                          sigma_jacobi_exponent=jac)
    return K, M, np.setdiff1d(free, mesh.arc_node_ids())


def _dense_lambdas(K, M, free):
    """Pencil eigenvalues ascending; the arc mass is singular, so solve the
    inverted pencil M x = mu K x and return 1/mu for mu > 0."""
    Kf = K[free][:, free].toarray()
    Mf = M[free][:, free].toarray()
    mu = scipy.linalg.eigh(Mf, Kf, eigvals_only=True)
    return np.sort(1.0 / mu[mu > 1e-12 * mu.max()])


def _eigen_result(case, h):
    kind, b, eps = case
    if kind == "hardy":
        return dl.hardy_quotient(None if b is None else dl.WeightFamily(b, eps), h)
    res = dl.trace_eigen(b, eps, h)
    assert res.route == kind
    return res


# eps = 0 trace and flat Hardy pencils take the separable solve, the others
# (eps > 0, weighted Hardy) the assembled one; ("hardy", 0.0, 0.0) is the flat
# Hardy pencil again, as a weighted one through the assembled path
PENCILS = [("direct", 0.5, 0.0), ("direct", -0.5, 0.0), ("transformed", -1.5, 0.0),
           ("hardy", None, 0.0), ("direct", 0.5, 0.1), ("transformed", -1.5, 0.1),
           ("hardy", 0.5, 0.1), ("hardy", -0.5, 0.0), ("hardy", 0.0, 0.0)]


def _case_id(case):
    kind, b, eps = case
    return f"{kind}-{b}" + (f"-eps{eps:g}" if eps else "")


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
@pytest.mark.parametrize("case", PENCILS, ids=_case_id)
def test_eigen_solve_gives_smallest_eigenvalue(case, h):
    """Both eigen paths give the smallest eigenvalue of the assembled pencil;
    the eigenvector is M-normalized, zero off the free dofs, and its residual
    in the assembled pencil is the one reported."""
    mesh = HalfDiskMesh.from_h(h)
    K, M, free = _pencil(case, mesh)
    res = _eigen_result(case, h)
    assert res.lam == pytest.approx(_dense_lambdas(K, M, free)[0], rel=1e-12)
    v = res.eigenvector
    kv, mv = K[free][:, free] @ v[free], M[free][:, free] @ v[free]
    assert np.linalg.norm(kv - res.lam * mv) / np.linalg.norm(kv) == pytest.approx(
        res.residual, abs=1e-12)
    assert v[free] @ mv == pytest.approx(1.0, rel=1e-12)
    assert not np.delete(v, free).any()


@pytest.mark.parametrize("case", [("direct", 0.5, 0.0), ("direct", 0.5, 0.1)],
                         ids=["separable", "assembled"])
def test_missed_residual_tolerance_raises(case, monkeypatch):
    """A solve whose residual misses EIG_RESIDUAL_TOL raises, naming the
    Lanczos steps it took, on both paths."""
    steps = _eigen_result(case, 1 / 8).iterations
    monkeypatch.setattr(spectral, "EIG_RESIDUAL_TOL", 0.0)
    with pytest.raises(RuntimeError, match=f"after {steps} Lanczos steps"):
        _eigen_result(case, 1 / 8)


# the pencils min_rayleigh factors: an eps > 0 trace pencil and weighted Hardy
BANDED = [("direct", 0.5, 0.1), ("hardy", 0.5, 0.1)]


def _band_factor(case, mesh):
    """(stiffness renumbered radius-fastest as min_rayleigh numbers it, its
    band Cholesky factor, mass renumbered the same way)."""
    K, M, free = _pencil(case, mesh)
    perm = spectral._radius_fastest(mesh, free)
    Kf = spectral._renumbered(K, perm)
    return Kf, spectral._band_cholesky(Kf), spectral._renumbered(M, perm)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
@pytest.mark.parametrize("case", BANDED, ids=_case_id)
def test_band_solve_matches_sparse_lu(case, h):
    """A solve with the band Cholesky factor equals a sparse LU solve of the
    same renumbered stiffness, for right-hand sides M 1 and K 1."""
    Kf, factor, Mf = _band_factor(case, HalfDiskMesh.from_h(h))
    lu = splu(Kf.tocsc())
    ones = np.ones(Kf.shape[0])
    for rhs in (Mf @ ones, Kf @ ones):
        want = lu.solve(rhs)
        got = lapack.dpbtrs(factor, rhs, lower=1)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
@pytest.mark.parametrize("case, extra", [(BANDED[0], 1), (BANDED[1], 0)],
                         ids=["trace", "hardy"])
def test_band_width_is_free_radial_count_plus_one(case, extra, h):
    """Numbered radius-fastest, the stiffness has half-bandwidth nr + 1 when
    the arc nodes are free (trace) and nr when they are fixed (Hardy)."""
    mesh = HalfDiskMesh.from_h(h)
    _, factor, _ = _band_factor(case, mesh)
    assert factor.shape[0] - 1 == mesh.nr + extra


def test_indefinite_stiffness_raises():
    """The band Cholesky of a negated stiffness fails at its first pivot."""
    mesh = HalfDiskMesh.from_h(1 / 8)
    K, M, free = _pencil(BANDED[0], mesh)
    with pytest.raises(np.linalg.LinAlgError, match=r"dpbtrf info=1\)"):
        spectral.min_rayleigh(mesh, -K, M, free)


def test_gauss_rules_are_computed_once():
    """The quadrature rules come from one read-only array pair per order
    (and Jacobi exponent), equal to scipy's."""
    x, w = spectral._gauss_legendre(spectral.ELEMENT_ORDER)
    assert spectral._gauss_legendre(spectral.ELEMENT_ORDER)[0] is x
    np.testing.assert_array_equal(x, roots_legendre(spectral.ELEMENT_ORDER)[0])
    jx, jw = spectral._gauss_jacobi(spectral.EDGE_ORDER, 0.5)
    assert spectral._gauss_jacobi(spectral.EDGE_ORDER, 0.5)[1] is jw
    np.testing.assert_array_equal(jw, roots_jacobi(spectral.EDGE_ORDER, 0.0, 0.5)[1])
    for arr in (x, w, jx, jw):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_mesh_and_trace_reject_values_they_cannot_run_on():
    for h in (0.3, 0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="must"):
            HalfDiskMesh.from_h(h)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        dl.trace_eigen(0.5, -0.1, 1 / 8)
    with pytest.raises(ValueError, match="b < 1"):
        dl.trace_eigen(1.2, 0.0, 1 / 8)


def test_eigen_sweep_rejects_nonpositive_r():
    for r in (0.0, -4.0):
        with pytest.raises(ValueError, match="r > 0"):
            dl.eigen_stability_sweep(0.5, [1.0, r], H_COARSE)


def _tri(t):
    return sp.diags([t[1], t[0], t[1]], [-1, 0, 1])


def _arc_row(mesh):
    e = np.zeros(mesh.nr + 1)
    e[-1] = 1.0
    return sp.diags(e)


@pytest.mark.parametrize("case", [("direct", -0.5, 0.0), ("direct", 0.0, 0.0),
                                  ("direct", 0.5, 0.0), ("transformed", -1.5, 0.0),
                                  ("transformed", 0.5, 0.0), ("hardy", None, 0.0)],
                         ids=_case_id)
def test_kronecker_factors_match_assembly(case):
    """K = A (x) B + C (x) D (+ W M on the arc) and M = e e^T (x) arc mass,
    or C (x) G for Hardy, from the 1-D factors equal the 2-D assembly."""
    mesh = HalfDiskMesh.from_h(1 / 8)
    K, M, free = _pencil(case, mesh)
    kind, b, _ = case
    if kind == "hardy":
        (A, C), (B, D), G = _hardy_factors(mesh)
        Ms, shift = sp.kron(_tri(C), _tri(G)), 0.0
    else:
        (A, C), (B, D), arc, shift = _trace_factors(mesh, b, kind)
        Ms = sp.kron(_arc_row(mesh), _tri(arc))
    Ks = sp.kron(_tri(A), _tri(B)) + sp.kron(_tri(C), _tri(D)) + shift * Ms
    for got, ref in ((Ks, K), (Ms, M)):
        ref = ref[free][:, free].toarray()
        got = got.tocsr()[free][:, free].toarray()
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Array assembly against per-point loop references
# ---------------------------------------------------------------------------

def _arc_mass_loop(mesh, weight=None, quad_order=6, skip_sigma_adjacent=False,
                   exclude_nodes=()):
    tn = mesh.theta_nodes
    gx, gw = roots_legendre(quad_order)
    M = np.zeros((mesh.nnodes, mesh.nnodes))
    for j in range(mesh.ntheta):
        if skip_sigma_adjacent and j in (0, mesh.ntheta - 1):
            continue
        t0, ht = tn[j], tn[j + 1] - tn[j]
        Me = np.zeros((2, 2))
        for xq, wq in zip(gx, gw):
            ta = t0 + (xq + 1.0) / 2.0 * ht
            wv = 1.0 if weight is None else float(weight(math.sin(ta)))
            N = np.array([1.0 - (ta - t0) / ht, (ta - t0) / ht])
            Me += wv * (wq * ht / 2.0) * np.outer(N, N)
        ends = [mesh.node_id(mesh.nr, j), mesh.node_id(mesh.nr, j + 1)]
        M[np.ix_(ends, ends)] += Me
    for nid in exclude_nodes:
        M[nid, :] = 0.0
        M[:, nid] = 0.0
    return M


@pytest.mark.parametrize("kwargs", [
    {},
    {"weight": _rho(0.5, 0.1)},
    {"weight": _rho(-0.5, 0.0), "skip_sigma_adjacent": True, "excluded": True},
], ids=["unweighted", "rho", "skip-and-exclude"])
def test_arc_mass_matches_loop_reference(kwargs):
    mesh = HalfDiskMesh.from_h(1 / 8)
    kwargs = dict(kwargs)
    if kwargs.pop("excluded", False):
        kwargs["exclude_nodes"] = [mesh.node_id(mesh.nr, 1),
                                   mesh.node_id(mesh.nr, mesh.ntheta - 1)]
    got = assemble_arc_mass(mesh, **kwargs).toarray()
    ref = _arc_mass_loop(mesh, **kwargs)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    for nid in kwargs.get("exclude_nodes", ()):
        assert not got[nid, :].any() and not got[:, nid].any()


def _forms_loop(mesh, stiffness_weight, mass_weight, jac=None, quad_order=4):
    """(K, M) summed element by element and point by point."""
    gx, gw = roots_legendre(quad_order)
    hr, ht = mesh.h, math.pi / mesh.ntheta
    out = [np.zeros((mesh.nnodes, mesh.nnodes)) for _ in range(2)]
    for j in range(mesh.ntheta):
        edge = None if jac is None or 0 < j < mesh.ntheta - 1 else j
        if edge is None:
            tq = [((x + 1.0) / 2.0, w * ht / 2.0, 1.0) for x, w in zip(gx, gw)]
        else:
            jx, jw = roots_jacobi(max(quad_order, 6), 0.0, jac)
            s = (jx + 1.0) / 2.0
            tq = [(si if edge == 0 else 1.0 - si, wi * (ht / 2.0) ** (1.0 + jac),
                   (si * ht) ** jac) for si, wi in zip(s, jw)]
        for i in range(mesh.nr):
            nodes = [mesh.node_id(i, j), mesh.node_id(i, j + 1),
                     mesh.node_id(i + 1, j), mesh.node_id(i + 1, j + 1)]
            for xr, wr in zip(gx, gw):
                R = (xr + 1.0) / 2.0
                ra = i * hr + R * hr
                for T, twt, dist in tq:
                    y = ra * math.sin(j * ht + T * ht)
                    jd = wr * hr / 2.0 * twt * ra / dist
                    N = np.array([(1 - R) * (1 - T), (1 - R) * T, R * (1 - T), R * T])
                    dNr = np.array([-(1 - T), -T, 1 - T, T]) / hr
                    dNt = np.array([-(1 - R), 1 - R, -R, R]) / ht
                    ix = np.ix_(nodes, nodes)
                    out[0][ix] += stiffness_weight(y) * jd * (
                        np.outer(dNr, dNr) + np.outer(dNt, dNt) / ra ** 2)
                    out[1][ix] += mass_weight(y) * jd * np.outer(N, N)
    return out


@pytest.mark.parametrize("mass", ["potential", "hardy"])
@pytest.mark.parametrize("b, eps, jac", [(0.5, 0.1, None), (-0.5, 0.0, -0.5)])
def test_element_forms_match_loop_reference(b, eps, jac, mass):
    """The stiffness and a domain mass, the transformed route's potential or
    the Hardy mass w / y^2, equal the point-by-point loop."""
    mesh = HalfDiskMesh.from_h(1 / 4)
    wfn = _rho(b, eps)

    def weight(y):
        if mass == "potential":
            return potentials("rho", b, eps, y)[0]
        return wfn(y) / (y * y)

    got = assemble_forms(mesh, wfn, mass_weight=weight, sigma_jacobi_exponent=jac)
    ref = _forms_loop(mesh, wfn, weight, jac)
    for g, r in zip(got, ref):
        # summation order differs: a few ulps of the largest entry
        assert np.max(np.abs(g.toarray() - r)) <= 1e-13 * np.max(np.abs(r))
