"""Trace/Hardy quotients, the lambda_r dilation rows, growth monitor."""

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
from degenlab.spectral import (HalfDiskMesh, _hardy_factors,
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
    lams = [dl.hardy_quotient(h).lam for h in (1 / 16, 1 / 32, 1 / 64)]
    assert all(l >= 0.25 for l in lams)            # conformity lower bound
    assert lams[0] >= lams[1] >= lams[2]           # nested spaces
    assert 0.25 <= lams[2] <= 0.40


def _lambda_r(a, r_list, h):
    """The lambda_r rows of ``eigen``: the trace quotient of rho(a, 1/r)."""
    return [dl.trace_eigen(a, 1.0 / r, h).lam for r in r_list]


def test_eigen_sweep_constant_weight_cancels():
    lams = _lambda_r(0.0, [1.0, 4.0, 16.0], H_COARSE)
    assert max(lams) - min(lams) < 1e-9
    assert lams[0] == pytest.approx(dl.trace_eigen(0.0, 0.0, H_COARSE).lam, abs=1e-9)


def test_eigen_sweep_rho_converges():
    lams = _lambda_r(0.5, [1.0, 4.0, 16.0, 64.0], 1 / 64)
    assert abs(lams[-1] - 0.5) < abs(lams[0] - 0.5)
    assert abs(lams[-1] - 0.5) <= 0.05


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


# ---------------------------------------------------------------------------
# Eigen solves against the assembled pencils and a dense solve
# ---------------------------------------------------------------------------

def _sigma_adjacent_arc_nodes(mesh):
    """The two arc nodes next to the plane, which the direct eps = 0 route
    drops from the arc mass."""
    return [mesh.node_id(mesh.nr, 1), mesh.node_id(mesh.nr, mesh.ntheta - 1)]


def _zeroed(M, nodes):
    """M with the rows and columns of ``nodes`` zero."""
    keep = np.ones(M.shape[0])
    keep[nodes] = 0.0
    D = sp.diags(keep)
    return (D @ M @ D).tocsr()


def _coo_forms(mesh, stiffness_weight, mass_weight=None, jac=None):
    """(K, M) on all nodes, sparse: the stiffness int w |grad u|^2 and the
    domain mass int m u^2 (zero when ``mass_weight`` is None), element rows
    at once, the two rows touching the plane by the Gauss-Jacobi rule of
    ``jac`` when given.  The vectorised assembler the separable factors
    replaced, kept as their oracle."""
    K = sp.coo_matrix((mesh.nnodes, mesh.nnodes))
    M = sp.coo_matrix((mesh.nnodes, mesh.nnodes))
    rn, tn = mesh.r_nodes, mesh.theta_nodes
    Rloc, rwt, hr = spectral._radial_rule(mesh)
    ht = tn[1] - tn[0]

    def accumulate(nodes, Ke):
        r = np.repeat(nodes[:, :, None], 4, axis=2).ravel()
        c = np.repeat(nodes[:, None, :], 4, axis=1).ravel()
        return sp.coo_matrix((Ke.ravel(), (r, c)), shape=(mesh.nnodes, mesh.nnodes))

    for jrange, Tloc, twt, dist in spectral._theta_rows(mesh, jac):
        nodes = spectral._element_rows(mesh).reshape(mesh.nr, mesh.ntheta, 4)[:, jrange].reshape(-1, 4)
        r0 = np.repeat(rn[:-1], len(jrange))
        t0 = np.tile(tn[jrange], mesh.nr)
        dist_pow = None if dist is None else np.tile(dist, len(Rloc))
        R = np.repeat(Rloc, len(Tloc))
        T = np.tile(Tloc, len(Rloc))
        ra = r0[:, None] + R * hr
        y = ra * np.sin(t0[:, None] + T * ht)
        jacdet = np.repeat(rwt, len(Tloc)) * np.tile(twt, len(Rloc)) * ra
        N = np.stack([(1 - R) * (1 - T), (1 - R) * T, R * (1 - T), R * T], axis=1)
        dNr = np.stack([-(1 - T), -T, (1 - T), T], axis=1) / hr
        dNt = np.stack([-(1 - R), (1 - R), -R, R], axis=1) / ht

        def coefficient(fn):
            v = np.asarray(fn(y), dtype=float)
            if dist_pow is not None:
                v = v / dist_pow
            return v * jacdet

        coef = coefficient(stiffness_weight)
        K = K + accumulate(nodes, spectral._contract(coef, spectral._products(dNr))
                           + spectral._contract(coef / ra ** 2, spectral._products(dNt)))
        if mass_weight is not None:
            M = M + accumulate(nodes, spectral._contract(coefficient(mass_weight),
                                                         spectral._products(N)))
    return K.tocsr(), M.tocsr()


def _arc_matrix(mesh, t):
    """The arc tridiagonal t of ``assemble_arc_mass`` on all nodes, sparse."""
    arc = mesh.node_id(mesh.nr, np.arange(mesh.ntheta + 1))
    T = sp.coo_matrix(_tri(t))
    return sp.csr_matrix((T.data, (arc[T.row], arc[T.col])), shape=(mesh.nnodes,) * 2)


def _unband(ab):
    """The symmetric matrix of the lower band storage ab[d, j] = K[j + d, j]."""
    n = ab.shape[1]
    L = sp.diags([ab[d, :n - d] for d in range(len(ab))], [-d for d in range(len(ab))])
    return (L + sp.triu(L.T, 1)).tocsr()


def _band_matrix(mesh, ab):
    """The band stiffness of ``assemble_forms`` on all nodes, sparse."""
    perm = spectral._band_geometry(mesh).perm
    P = sp.csr_matrix((np.ones(len(perm)), (perm, np.arange(len(perm)))),
                      shape=(mesh.nnodes, len(perm)))
    return (P @ _unband(ab) @ P.T).tocsr()


def _pencil(case, mesh):
    """(K, M, free dofs) on all nodes.  A case is (kind, b, eps); the Hardy
    case ("hardy", None, 0.0) is the flat Hardy pencil, whose arc is fixed.
    An eps > 0 case is the band pencil ``min_rayleigh`` solves; the eps = 0
    cases come from ``_coo_forms``.  The transformed case (eps = 0) is the
    flat form with the domain potential c / y^2, c = b (b - 2) / 4, and the
    arc potential W = -b/2 times the unweighted arc mass."""
    free = mesh.free_nodes()
    kind, b, eps = case
    if kind == "direct":
        wfn = _rho(b, eps)
        arc = _arc_matrix(mesh, assemble_arc_mass(mesh, wfn))
        if eps > 0.0:
            return _band_matrix(mesh, assemble_forms(mesh, wfn)), arc, free
        if b == 0.0:
            return _coo_forms(mesh, wfn)[0], arc, free
        K, _ = _coo_forms(mesh, wfn, jac=b)
        return K, _zeroed(arc, _sigma_adjacent_arc_nodes(mesh)), free
    if kind == "transformed":
        c, W = b * (b - 2.0) / 4.0, -b / 2.0
        K, P = _coo_forms(mesh, np.ones_like, mass_weight=lambda y: c / (y * y))
        arc = _arc_matrix(mesh, assemble_arc_mass(mesh, None))
        return K + P + W * arc, arc, free
    K, M = _coo_forms(mesh, np.ones_like, mass_weight=lambda y: 1.0 / (y * y))
    return K, M, np.setdiff1d(free, mesh.node_id(mesh.nr, np.arange(mesh.ntheta + 1)))


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
        return dl.hardy_quotient(h)
    res = dl.trace_eigen(b, eps, h)
    assert res.route == kind
    return res


# eps = 0 trace and flat Hardy pencils take the separable solve, the eps > 0
# trace pencils the assembled one, at eps = 0.1 and at the eps = 1/r of the
# lambda_r rows of `eigen` (r = 1, 4, 16, 64)
LAMBDA_R_EPS = [1.0, 0.25, 0.0625, 0.015625]
PENCILS = [("direct", 0.5, 0.0), ("direct", -0.5, 0.0), ("transformed", -1.5, 0.0),
           ("hardy", None, 0.0), ("direct", 0.5, 0.1), ("direct", -0.5, 0.1)] + [
    ("direct", b, eps) for b in (0.5, -0.5) for eps in LAMBDA_R_EPS]


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


# the pencils min_rayleigh factors: eps > 0 trace pencils, degenerate and singular
BANDED = [("direct", 0.5, 0.1), ("direct", -0.5, 0.1)]


def _band_factor(case, mesh):
    """(stiffness in the band numbering of ``min_rayleigh``, sparse, the
    band Cholesky factor of its band storage, mass in the same numbering)."""
    _, b, eps = case
    wfn = _rho(b, eps)
    ab = assemble_forms(mesh, wfn)
    factor, info = lapack.dpbtrf(ab, lower=1)
    assert info == 0
    perm = spectral._band_geometry(mesh).perm
    M = _arc_matrix(mesh, assemble_arc_mass(mesh, wfn))[perm][:, perm]
    return _unband(ab), factor, M


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
@pytest.mark.parametrize("case", BANDED, ids=_case_id)
def test_band_solve_matches_sparse_lu(case, h):
    """A solve with the band Cholesky factor equals a sparse LU solve of the
    same stiffness, for right-hand sides M 1 and K 1."""
    Kf, factor, Mf = _band_factor(case, HalfDiskMesh.from_h(h))
    lu = splu(Kf.tocsc())
    ones = np.ones(Kf.shape[0])
    for rhs in (Mf @ ones, Kf @ ones):
        want = lu.solve(rhs)
        got = lapack.dpbtrs(factor, rhs, lower=1)[0]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16], ids=["h8", "h16"])
@pytest.mark.parametrize("case", BANDED[:1], ids=["trace"])
def test_band_width_is_free_radial_count_plus_one(case, h):
    """Numbered radius-fastest, the stiffness has half-bandwidth nr + 1: the
    free radial nodes of one angular row, arc node included, plus one."""
    mesh = HalfDiskMesh.from_h(h)
    _, factor, _ = _band_factor(case, mesh)
    assert factor.shape[0] - 1 == mesh.nr + 1


def test_lanczos_runs_on_the_arc_trace(monkeypatch):
    """min_rayleigh iterates on the free arc dofs, not on every free dof:
    each vector its Lanczos operator takes or returns, and the Ritz vector,
    has ntheta - 1 entries."""
    lengths = set()
    lanczos = spectral._lanczos_max

    def recording(op, mass, *rest):
        def op_recording(mg):
            out = op(mg)
            lengths.update((len(mg), len(out)))
            return out

        q, steps = lanczos(op_recording, mass, *rest)
        lengths.add(len(q))
        return q, steps

    monkeypatch.setattr(spectral, "_lanczos_max", recording)
    mesh = HalfDiskMesh.from_h(1 / 8)
    assert len(spectral._band_geometry(mesh).perm) > mesh.ntheta - 1
    dl.trace_eigen(0.5, 0.25, 1 / 8)
    assert lengths == {mesh.ntheta - 1}


@pytest.mark.parametrize("shape", [(1, 16), (2048, 16), (2049, 16), (64, 256, 16)],
                         ids=["1", "2048", "2049", "16384"])
def test_blocked_contract_is_one_matmul(shape, monkeypatch):
    """_contract, a matmul in blocks of at most ``CONTRACT_ROWS`` = 2,048
    rows, equals one matmul over every row; 16,384 rows are the (radial,
    angular) elements at h = 1/64."""
    rng = np.random.default_rng(29)
    coef, products = rng.standard_normal(shape), rng.standard_normal((16, 16))
    want = coef @ products
    blocks, matmul = [], np.matmul

    def recording(a, b, **kw):
        blocks.append(len(a))
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", recording)
    got = spectral._contract(coef, products)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert spectral.CONTRACT_ROWS == 2048
    assert max(blocks) <= 2048 and sum(blocks) == coef.size // 16


def test_indefinite_stiffness_raises():
    """The band Cholesky of a negated stiffness fails at its first pivot."""
    mesh = HalfDiskMesh.from_h(1 / 8)
    wfn = _rho(*BANDED[0][1:])
    with pytest.raises(np.linalg.LinAlgError, match=r"dpbtrf info=1\)"):
        spectral.min_rayleigh(mesh, -assemble_forms(mesh, wfn), assemble_arc_mass(mesh, wfn))


def test_lambda_r_rows_share_one_geometry():
    """The lambda_r rows of one h reuse one band geometry, and the cache
    holds the geometry of one mesh only."""
    spectral._band_geometry.cache_clear()
    mesh = HalfDiskMesh.from_h(1 / 8)
    dl.trace_eigen(0.5, 1.0, 1 / 8)
    geometry = spectral._band_geometry(mesh)
    dl.trace_eigen(0.5, 0.25, 1 / 8)
    assert spectral._band_geometry(mesh) is geometry
    assert spectral._band_geometry.cache_info().misses == 1
    dl.trace_eigen(0.5, 1.0, 1 / 16)
    info = spectral._band_geometry.cache_info()
    assert (info.misses, info.currsize) == (2, 1)
    for arr in (a for a in geometry if isinstance(a, np.ndarray)):
        assert not arr.flags.writeable


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


def test_top_ritz_pair_is_eigh_tridiagonal():
    """The Lanczos convergence test's Ritz pair is, bit for bit, the top
    eigenpair ``scipy.linalg.eigh_tridiagonal(select="i")`` gives."""
    rng = np.random.default_rng(5)
    for k in range(1, 21):
        alpha, beta = list(rng.random(k)), list(rng.random(k - 1))
        theta, s = spectral._top_ritz_pair(alpha, beta)
        want, vec = scipy.linalg.eigh_tridiagonal(alpha, beta, select="i",
                                                  select_range=(k - 1, k - 1))
        assert theta == want[0]
        np.testing.assert_array_equal(s, vec[:, 0])


def test_mesh_and_trace_reject_values_they_cannot_run_on():
    for h in (0.3, 0.0, -0.5, math.inf):
        with pytest.raises(ValueError, match="must"):
            HalfDiskMesh.from_h(h)
    for h in (1.0, 0.5):                # the Hardy pencil needs two interior radial nodes
        with pytest.raises(ValueError, match="must be at most 1/3"):
            HalfDiskMesh.from_h(h)
    assert HalfDiskMesh.from_h(1 / 3).nr == 3
    assert HalfDiskMesh.from_h(1 / 128).nnodes <= spectral.MAX_NODES
    for h in (1 / 256, 1e-5, 5e-324):   # more nodes than MAX_NODES, refused before rounding
        with pytest.raises(ValueError, match=f"at most {spectral.MAX_NODES} nodes"):
            HalfDiskMesh.from_h(h)
    for r in (1e-155, 5e-324):          # eps = 1/r whose square is not finite
        with pytest.raises(ValueError, match="finite square"):
            spectral._trace_route(0.5, 1.0 / r)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        dl.trace_eigen(0.5, -0.1, 1 / 8)
    with pytest.raises(ValueError, match="b < 1"):
        dl.trace_eigen(1.2, 0.0, 1 / 8)
    for b in (-1.0, -1.5):              # eps > 0 assembles the direct pencil only
        with pytest.raises(ValueError, match="needs b > -1"):
            dl.trace_eigen(b, 0.1, 1 / 8)


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


@pytest.mark.parametrize("weight, skipped", [(None, False), (_rho(0.5, 0.1), False),
                                             (_rho(-0.5, 0.0), True)],
                         ids=["unweighted", "rho", "skip-and-exclude"])
def test_arc_mass_matches_loop_reference(weight, skipped):
    """The arc mass equals the segment-by-segment loop.  With the two arc
    nodes next to the plane dropped, as the direct eps = 0 route drops them,
    it equals on the free dofs the loop that also skips the two segments
    touching the plane: those segments reach no other free dof."""
    mesh = HalfDiskMesh.from_h(1 / 8)
    got = _arc_matrix(mesh, assemble_arc_mass(mesh, weight))
    if skipped:
        drop = _sigma_adjacent_arc_nodes(mesh)
        free = mesh.free_nodes()
        got = _zeroed(got, drop)[free][:, free].toarray()
        ref = _arc_mass_loop(mesh, weight, skip_sigma_adjacent=True,
                             exclude_nodes=drop)[np.ix_(free, free)]
    else:
        got = got.toarray()
        ref = _arc_mass_loop(mesh, weight)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


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
    """The oracle ``_coo_forms`` of the separable factors: the stiffness and a
    domain mass, the potential V of the rho-conjugation or the Hardy mass
    w / y^2, equal the point-by-point loop."""
    mesh = HalfDiskMesh.from_h(1 / 4)
    wfn = _rho(b, eps)

    def weight(y):
        if mass == "potential":
            d2 = eps * eps + y * y
            return b * ((b - 2.0) * y * y + 2.0 * eps * eps) / (4.0 * d2 * d2)
        return wfn(y) / (y * y)

    got = _coo_forms(mesh, wfn, mass_weight=weight, jac=jac)
    ref = _forms_loop(mesh, wfn, weight, jac)
    for g, r in zip(got, ref):
        # summation order differs: a few ulps of the largest entry
        assert np.max(np.abs(g.toarray() - r)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("b", [0.5, -0.5])
def test_band_stiffness_matches_loop_reference(b):
    """The band storage of ``assemble_forms``, expanded, equals the
    point-by-point loop's stiffness entry by entry on the free dofs."""
    mesh = HalfDiskMesh.from_h(1 / 4)
    wfn = _rho(b, 0.1)
    free = mesh.free_nodes()
    got = _band_matrix(mesh, assemble_forms(mesh, wfn))[free][:, free].toarray()
    ref = _forms_loop(mesh, wfn, lambda y: 0.0)[0][np.ix_(free, free)]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
