"""Conforming nodal discretization of the weighted quadratic forms on the half disk.

The mesh is tensor-product in polar coordinates (r, theta) on
[0, 1] x [0, pi] with bilinear shape functions; mapped elements are annular
sectors, so the curved arc is represented exactly and the nodal space is a
conforming subspace of H^1 of the half disk (discrete Rayleigh quotients can
only over-estimate continuum infima, and nested refinement can only lower
them).  The flat diameter lies on the characteristic plane: every quotient
here constrains its functions to vanish there.

Two assembly routes realize each weighted quotient:

* direct: stiffness with the weight w itself; admissible while w is locally
  integrable (exponent > -1).  With eps = 0 the elements touching the plane
  integrate the singular/degenerate factor by Gauss-Jacobi rules matched to
  the exponent, and the weighted boundary mass drops the two arc nodes
  adjacent to the plane.
* transformed: substitute v = w^(1/2) u, turning the quotient into a flat
  Dirichlet form plus the closed-form potentials of
  :mod:`degenlab.potentials`; this is the only usable route once the weight
  leaves the locally integrable range (trace exponents <= -1 and all
  inverse-quotient weights), and the two routes agree in the integrable
  range, which the tests exercise.

Eigenvalues come from shift-zero inverse iteration on the generalized pair
(stiffness, mass), deterministic all-ones start, tolerance 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from .assembly import DiscreteField, WeightModel, assemble
from .potentials import potentials
from .weights import WeightFamily, omega as omega_weight, rho as rho_weight

EIG_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-9
MAX_INVERSE_ITER = 1000


@dataclass(frozen=True)
class HalfDiskMesh:
    """Polar tensor mesh: radial spacing h = 1/nr, arc spacing ~ pi/ntheta."""

    nr: int
    ntheta: int

    @classmethod
    def from_h(cls, h: float) -> "HalfDiskMesh":
        nr = int(round(1.0 / h))
        if abs(nr * h - 1.0) > 1e-9:
            raise ValueError(f"h={h} must divide the unit radius")
        # 4 nr angular cells: arc spacing pi/(4 nr) < h, and refinement h -> h/2
        # doubles both directions exactly, so nodal spaces nest
        return cls(nr=nr, ntheta=4 * nr)

    @property
    def h(self) -> float:
        return 1.0 / self.nr

    @property
    def r_nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nr + 1)

    @property
    def theta_nodes(self) -> np.ndarray:
        return np.linspace(0.0, math.pi, self.ntheta + 1)

    @property
    def nnodes(self) -> int:
        return (self.nr + 1) * (self.ntheta + 1)

    def node_id(self, i, j):
        return i * (self.ntheta + 1) + j

    def free_nodes(self) -> np.ndarray:
        """All nodes except the flat diameter (theta in {0, pi}) and the origin ring."""
        fixed = np.zeros(self.nnodes, dtype=bool)
        i = np.arange(self.nr + 1)
        fixed[self.node_id(i, 0)] = True
        fixed[self.node_id(i, self.ntheta)] = True
        j = np.arange(self.ntheta + 1)
        fixed[self.node_id(0, j)] = True
        return np.nonzero(~fixed)[0]

    def arc_node_ids(self) -> np.ndarray:
        return self.node_id(self.nr, np.arange(self.ntheta + 1))


@dataclass
class NodalField:
    mesh: HalfDiskMesh
    values: np.ndarray


@dataclass
class EigenResult:
    quotient_id: str
    a: float
    eps_or_r: float
    grid_h: float
    lam: float
    residual: float
    route: str
    iterations: int
    eigenvector: NodalField = field(repr=False)

    def csv_row(self) -> tuple:
        return (self.quotient_id, self.a, self.eps_or_r, self.grid_h,
                self.lam, self.residual)


# ---------------------------------------------------------------------------
# Vectorized element assembly
# ---------------------------------------------------------------------------

def _element_rows(mesh: HalfDiskMesh, jrange) -> np.ndarray:
    """Node quadruples for all elements in theta-rows jrange, shape (nel, 4)."""
    jj = np.asarray(jrange)
    ii = np.arange(mesh.nr)
    I, J = np.meshgrid(ii, jj, indexing="ij")
    n00 = mesh.node_id(I, J).ravel()
    n01 = mesh.node_id(I, J + 1).ravel()
    n10 = mesh.node_id(I + 1, J).ravel()
    n11 = mesh.node_id(I + 1, J + 1).ravel()
    return np.stack([n00, n01, n10, n11], axis=1)


def _accumulate(mesh, nodes, Ke) -> sp.coo_matrix:
    r = np.repeat(nodes[:, :, None], 4, axis=2).ravel()
    c = np.repeat(nodes[:, None, :], 4, axis=1).ravel()
    return sp.coo_matrix((Ke.ravel(), (r, c)), shape=(mesh.nnodes, mesh.nnodes))


def _quad_nodes_1d(order, kind="legendre", jac_exponent=0.0):
    if kind == "legendre":
        x, w = roots_legendre(order)
    else:
        x, w = roots_jacobi(order, 0.0, jac_exponent)
    return x, w


def assemble_forms(mesh: HalfDiskMesh,
                   stiffness_weight: Optional[Callable] = None,
                   potential: Optional[Callable] = None,
                   domain_mass_weight: Optional[Callable] = None,
                   quad_order: int = 4,
                   sigma_jacobi_exponent: Optional[float] = None):
    """Assemble (K, P, Md): weighted stiffness, potential mass, domain mass.

    All weight callables take an array of ordinates y.  When
    ``sigma_jacobi_exponent`` = b is given, the elements in the two theta-rows
    touching the plane integrate with Gauss-Jacobi rules in theta matched to
    the edge behavior dist(theta)^b of the weights (weights are divided by
    dist^b before quadrature, the rule restores it exactly).
    """
    need_K = stiffness_weight is not None
    need_P = potential is not None
    need_M = domain_mass_weight is not None
    K = sp.coo_matrix((mesh.nnodes, mesh.nnodes))
    P = sp.coo_matrix((mesh.nnodes, mesh.nnodes))
    Md = sp.coo_matrix((mesh.nnodes, mesh.nnodes))

    jac = sigma_jacobi_exponent
    if jac is not None:
        row_groups = [(np.arange(1, mesh.ntheta - 1), None),
                      (np.array([0]), "low"), (np.array([mesh.ntheta - 1]), "high")]
    else:
        row_groups = [(np.arange(mesh.ntheta), None)]

    rn, tn = mesh.r_nodes, mesh.theta_nodes
    hr = rn[1] - rn[0]
    ht = tn[1] - tn[0]
    gx, gw = _quad_nodes_1d(quad_order)

    for jrange, edge in row_groups:
        if len(jrange) == 0:
            continue
        nodes = _element_rows(mesh, jrange)
        nel = nodes.shape[0]
        r0 = np.repeat(rn[:-1], len(jrange))
        t0 = np.tile(tn[jrange], mesh.nr)
        Ke = np.zeros((nel, 4, 4))
        Pe = np.zeros((nel, 4, 4))
        Me = np.zeros((nel, 4, 4))
        if edge is None:
            tqx, tqw = gx, gw
        else:
            tqx, tqw = _quad_nodes_1d(max(quad_order, 6), "jacobi", jac)
        for aq in range(len(gx)):
            Rloc = (gx[aq] + 1.0) / 2.0
            ra = r0 + Rloc * hr
            rwt = gw[aq] * hr / 2.0
            for bq in range(len(tqx)):
                if edge is None:
                    Tloc = (tqx[bq] + 1.0) / 2.0
                    twt = tqw[bq] * ht / 2.0
                    dist_pow = 1.0
                elif edge == "low":
                    Tloc = (tqx[bq] + 1.0) / 2.0
                    twt = tqw[bq] * (ht / 2.0) ** (1.0 + jac)
                    dist_pow = (Tloc * ht) ** jac     # divided out of the weight
                else:
                    Tloc = 1.0 - (tqx[bq] + 1.0) / 2.0
                    twt = tqw[bq] * (ht / 2.0) ** (1.0 + jac)
                    dist_pow = ((1.0 - Tloc) * ht) ** jac
                ta = t0 + Tloc * ht
                y = ra * np.sin(ta)
                jacdet = rwt * twt * ra
                N = np.array([(1 - Rloc) * (1 - Tloc), (1 - Rloc) * Tloc,
                              Rloc * (1 - Tloc), Rloc * Tloc])
                dNr = np.array([-(1 - Tloc), -Tloc, (1 - Tloc), Tloc]) / hr
                dNt = np.array([-(1 - Rloc), (1 - Rloc), -Rloc, Rloc]) / ht
                if need_K:
                    w = np.asarray(stiffness_weight(y), dtype=float)
                    if edge is not None:
                        w = w / dist_pow
                    g_rr = np.einsum("a,b->ab", dNr, dNr)
                    g_tt = np.einsum("a,b->ab", dNt, dNt)
                    coef = w * jacdet
                    Ke += coef[:, None, None] * g_rr[None, :, :] \
                        + (coef / ra ** 2)[:, None, None] * g_tt[None, :, :]
                NN = np.einsum("a,b->ab", N, N)
                if need_P:
                    pv = np.asarray(potential(y), dtype=float)
                    if edge is not None:
                        pv = pv / dist_pow
                    Pe += (pv * jacdet)[:, None, None] * NN[None, :, :]
                if need_M:
                    mv = np.asarray(domain_mass_weight(y), dtype=float)
                    if edge is not None:
                        mv = mv / dist_pow
                    Me += (mv * jacdet)[:, None, None] * NN[None, :, :]
        if need_K:
            K = K + _accumulate(mesh, nodes, Ke)
        if need_P:
            P = P + _accumulate(mesh, nodes, Pe)
        if need_M:
            Md = Md + _accumulate(mesh, nodes, Me)
    return K.tocsr(), P.tocsr(), Md.tocsr()


def assemble_arc_mass(mesh: HalfDiskMesh, weight: Optional[Callable] = None,
                      quad_order: int = 6,
                      skip_sigma_adjacent: bool = False,
                      exclude_nodes: Sequence[int] = ()) -> sp.csr_matrix:
    """Boundary mass on the arc r = 1: int weight(y) u^2 dtheta."""
    tn = mesh.theta_nodes
    gx, gw = roots_legendre(quad_order)
    rows, cols, vals = [], [], []
    for j in range(mesh.ntheta):
        if skip_sigma_adjacent and (j == 0 or j == mesh.ntheta - 1):
            continue
        t0, t1 = tn[j], tn[j + 1]
        ht = t1 - t0
        n0 = mesh.node_id(mesh.nr, j)
        n1 = mesh.node_id(mesh.nr, j + 1)
        Me = np.zeros((2, 2))
        for bq in range(len(gx)):
            ta = t0 + (gx[bq] + 1.0) / 2.0 * ht
            wq = gw[bq] * ht / 2.0
            y = math.sin(ta)
            wv = 1.0 if weight is None else float(np.asarray(weight(y)).ravel()[0])
            N = np.array([1.0 - (ta - t0) / ht, (ta - t0) / ht])
            Me += wv * wq * np.outer(N, N)
        for aa, na in enumerate((n0, n1)):
            for bb, nb in enumerate((n0, n1)):
                rows.append(na)
                cols.append(nb)
                vals.append(Me[aa, bb])
    M = sp.coo_matrix((vals, (rows, cols)), shape=(mesh.nnodes, mesh.nnodes)).tocsr()
    if exclude_nodes:
        M = M.tolil()
        for nid in exclude_nodes:
            M[nid, :] = 0.0
            M[:, nid] = 0.0
        M = M.tocsr()
    return M


# ---------------------------------------------------------------------------
# Generalized minimum-eigenvalue solve
# ---------------------------------------------------------------------------

def min_rayleigh(K: sp.csr_matrix, M: sp.csr_matrix, free: np.ndarray,
                 tol: float = EIG_TOL) -> Tuple[float, np.ndarray, float, int]:
    """Smallest generalized eigenvalue of (K, M) on the free dofs.

    Shift-zero inverse iteration with the deterministic all-ones start; the
    returned residual is ||K v - lam M v|| / ||K v||."""
    Kf = K[free][:, free].tocsc()
    Mf = M[free][:, free].tocsr()
    lu = spla.splu(Kf)
    v = np.ones(len(free))
    lam_prev = math.inf
    lam = math.inf
    it = 0
    for it in range(1, MAX_INVERSE_ITER + 1):
        w = Mf @ v
        nrm = math.sqrt(abs(float(v @ w)))
        if nrm == 0.0:
            raise RuntimeError("mass matrix annihilates the iterate (all-zero trace)")
        v_new = lu.solve(w / nrm)
        v = v_new
        kv = Kf @ v
        mv = Mf @ v
        lam = float(v @ kv) / float(v @ mv)
        res = float(np.linalg.norm(kv - lam * mv) / np.linalg.norm(kv))
        if abs(lam - lam_prev) <= tol * abs(lam) and res <= EIG_RESIDUAL_TOL:
            break
        lam_prev = lam
    full = np.zeros(K.shape[0])
    full[free] = v / math.sqrt(abs(float(v @ (Mf @ v))))
    return lam, full, res, it


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def _rho_fn(b: float, eps: float) -> Callable:
    def w(y):
        return (eps * eps + y * y) ** (b / 2.0)
    return w


def _conjugated_forms(kind: str, a: float, eps: float, mesh: HalfDiskMesh,
                      quad_order: int) -> sp.csr_matrix:
    """K0 + P + Wb: the flat Dirichlet form, the domain potential and the arc
    potential of the weight ``kind`` ('rho' or 'omega_inverse', see
    :func:`degenlab.potentials.potentials`) conjugated away by v = w^(1/2) u."""
    def V(y):
        return potentials(kind, a, eps, y)[0]

    def Warc(y):
        return potentials(kind, a, eps, y)[1]

    K0, P, _ = assemble_forms(mesh, stiffness_weight=lambda y: np.ones_like(y),
                              potential=V, quad_order=quad_order)
    return K0 + P + assemble_arc_mass(mesh, Warc)


def trace_eigen(b: float, eps: float, grid_h: float, route: str = "auto",
                quad_order: int = 4) -> EigenResult:
    """Sharp constant of int rho^b |grad u|^2 >= lam int_arc rho^b u^2, u|_plane = 0.

    The minimum tends to 1 - b under refinement (eigenfunction y^(1-b)).
    route='direct' assembles the weighted quotient literally (requires
    b > -1); route='transformed' conjugates by rho^(b/2) and uses the
    closed-form potentials, valid for every b < 1; 'auto' picks direct in the
    locally integrable range and transformed outside."""
    if b >= 1.0:
        raise ValueError("trace exponent must satisfy b < 1")
    if route == "auto":
        route = "direct" if b > -1.0 else "transformed"
    mesh = HalfDiskMesh.from_h(grid_h)
    free = mesh.free_nodes()
    if route == "direct":
        if b <= -1.0:
            raise ValueError("direct route requires locally integrable weight (b > -1)")
        wfn = _rho_fn(b, eps)
        jac = b if (eps == 0.0 and b != 0.0) else None
        K, _, _ = assemble_forms(mesh, stiffness_weight=wfn, quad_order=quad_order,
                                 sigma_jacobi_exponent=jac)
        if eps == 0.0 and b != 0.0:
            excl = [mesh.node_id(mesh.nr, 1), mesh.node_id(mesh.nr, mesh.ntheta - 1)]
            M = assemble_arc_mass(mesh, wfn, skip_sigma_adjacent=True,
                                  exclude_nodes=excl)
        else:
            M = assemble_arc_mass(mesh, wfn)
    elif route == "transformed":
        K = _conjugated_forms("rho", b, eps, mesh, quad_order)
        M = assemble_arc_mass(mesh, None)
    else:
        raise ValueError(f"unknown route {route!r}")
    lam, vec, res, it = min_rayleigh(K, M, free)
    return EigenResult(quotient_id=f"trace[b={b:g}]", a=b, eps_or_r=eps,
                       grid_h=grid_h, lam=lam, residual=res, route=route,
                       iterations=it, eigenvector=NodalField(mesh, vec))


WeightSpec = Union[None, WeightFamily, Callable]


def _weight_fn(weight: WeightSpec) -> Tuple[Callable, Optional[float], Optional[float]]:
    """Normalize a weight spec to (callable-on-y, exponent a or None, eps)."""
    if weight is None:
        return (lambda y: np.ones_like(np.asarray(y, dtype=float))), None, None
    if isinstance(weight, WeightFamily):
        fam = weight
        return (lambda y: rho_weight(fam, y)), fam.a, fam.eps
    return weight, None, None


def hardy_quotient(weight: WeightSpec, grid_h: float,
                   quad_order: int = 4) -> EigenResult:
    """min int w |grad u|^2 / int (w/y^2) u^2 over u vanishing on the plane
    and on the arc; for w == 1 the continuum constant is 1/4 (not attained)."""
    wfn, a, eps = _weight_fn(weight)
    mesh = HalfDiskMesh.from_h(grid_h)
    free0 = mesh.free_nodes()
    arc = set(mesh.arc_node_ids().tolist())
    free = np.array([n for n in free0 if n not in arc])
    jac = a if (a is not None and eps == 0.0 and a != 0.0) else None
    if a is not None and a <= -1.0 and eps == 0.0:
        raise ValueError("hardy direct route requires a > -1 at eps=0")

    def mass(y):
        return wfn(y) / (y * y)

    K, _, M = assemble_forms(mesh, stiffness_weight=wfn, domain_mass_weight=mass,
                             quad_order=quad_order, sigma_jacobi_exponent=jac)
    lam, vec, res, it = min_rayleigh(K, M, free)
    wid = "1" if a is None else f"rho[a={a:g},eps={eps:g}]"
    return EigenResult(quotient_id=f"hardy[w={wid}]",
                       a=a if a is not None else 0.0,
                       eps_or_r=eps if eps is not None else 0.0,
                       grid_h=grid_h, lam=lam, residual=res, route="direct",
                       iterations=it, eigenvector=NodalField(mesh, vec))


def boundary_hardy_quotient(weight: WeightSpec, grid_h: float,
                            quad_order: int = 4,
                            kind: str = "auto") -> EigenResult:
    """min int w |grad v|^2 / int_arc (w/y) v^2 over v vanishing on the plane.

    kind='omega_inverse' treats ``weight`` as a WeightFamily and uses the
    inverse auxiliary weight (always through the transformed route); 'auto'
    assembles rho-type weights directly when locally integrable and through
    the conjugated form otherwise."""
    mesh = HalfDiskMesh.from_h(grid_h)
    free = mesh.free_nodes()
    if kind == "omega_inverse":
        if not isinstance(weight, WeightFamily):
            raise TypeError("omega_inverse kind requires a WeightFamily")
        fam = weight
        K = _conjugated_forms("omega_inverse", fam.a, fam.eps, mesh, quad_order)
        M = assemble_arc_mass(mesh, lambda y: 1.0 / y)
        wid = f"omega_inv[a={fam.a:g},eps={fam.eps:g}]"
        route = "transformed"
        a_val, e_val = fam.a, fam.eps
    else:
        wfn, a, eps = _weight_fn(weight)
        a_val = a if a is not None else 0.0
        e_val = eps if eps is not None else 0.0
        if a is not None and a <= -1.0 and eps == 0.0:
            K = _conjugated_forms("rho", a, eps, mesh, quad_order)
            M = assemble_arc_mass(mesh, lambda y: 1.0 / y)
            route = "transformed"
        else:
            jac = a if (a is not None and eps == 0.0 and a != 0.0) else None
            K, _, _ = assemble_forms(mesh, stiffness_weight=wfn, quad_order=quad_order,
                                     sigma_jacobi_exponent=jac)
            M = assemble_arc_mass(mesh, lambda y: wfn(y) / y)
            route = "direct"
        wid = "1" if a is None else f"rho[a={a:g},eps={eps:g}]"
    lam, vec, res, it = min_rayleigh(K, M, free)
    return EigenResult(quotient_id=f"boundary_hardy[w={wid}]", a=a_val,
                       eps_or_r=e_val, grid_h=grid_h, lam=lam, residual=res,
                       route=route, iterations=it,
                       eigenvector=NodalField(mesh, vec))


def eigen_stability_sweep(a: float, r_list: Sequence[float], grid_h: float,
                          form: str = "rho", quad_order: int = 4) -> list:
    """Table of (r, lam_r, residual) for the dilated weights; lam_r -> 1-a
    ('rho' form, a in (-1,1)) resp. 3-a ('omega_inverse' form, any a < 1) as
    r grows.  The residual is the eigen solve's (see :func:`min_rayleigh`)."""
    rows = []
    for r in r_list:
        eps = 1.0 / r
        if form == "rho":
            if not (-1.0 < a < 1.0):
                raise ValueError("rho-form sweep requires a in (-1, 1)")
            res = trace_eigen(a, eps, grid_h, route="direct", quad_order=quad_order)
        elif form == "omega_inverse":
            res = boundary_hardy_like_omega_trace(a, eps, grid_h, quad_order)
        else:
            raise ValueError(f"unknown form {form!r}")
        rows.append((r, res.lam, res.residual))
    return rows


def boundary_hardy_like_omega_trace(a: float, eps: float, grid_h: float,
                                    quad_order: int = 4) -> EigenResult:
    """Trace quotient of the inverse auxiliary weight:
    min int (omega)^(-1) |grad u|^2 / int_arc (omega)^(-1) u^2 -> 3 - a."""
    mesh = HalfDiskMesh.from_h(grid_h)
    free = mesh.free_nodes()
    K = _conjugated_forms("omega_inverse", a, eps, mesh, quad_order)
    M = assemble_arc_mass(mesh, None)
    lam, vec, res, it = min_rayleigh(K, M, free)
    return EigenResult(quotient_id=f"omega_inv_trace[a={a:g}]", a=a, eps_or_r=eps,
                       grid_h=grid_h, lam=lam, residual=res, route="transformed",
                       iterations=it, eigenvector=NodalField(mesh, vec))


# ---------------------------------------------------------------------------
# Growth monitor and isometries (operate on the cell-centered fields)
# ---------------------------------------------------------------------------

def growth_monitor(field: DiscreteField, a: float, r_list: Sequence[float],
                   trace: Optional[Callable] = None, nphi: int = 720) -> list:
    """Rows (r, H(r), H(r)/r^(2(1-a))) with
    H(r) = r^(-(1+a)) int_{arc r} y^a u^2 = int_0^pi sin(phi)^a u^2 dphi.

    Trapezoid quadrature on arc samples interpolated from the cell-centered
    field; odd fields vanish at the endpoints, where the integrand is set to
    its limit 0 (integrable for a > -1)."""
    if not -1.0 < a < 1.0:
        raise ValueError("growth monitor requires a in (-1, 1)")
    if max(r_list) > 1.0 + 1e-12:
        raise ValueError("arc radius outside the unit half-disk grid")
    rows = []
    phi = np.linspace(0.0, math.pi, nphi + 1)
    inner = phi[1:-1]
    for r in r_list:
        pts = np.stack([r * np.cos(inner), r * np.sin(inner)], axis=1)
        u = field.interpolate(pts, trace=trace)
        integrand = np.zeros(nphi + 1)
        integrand[1:-1] = np.sin(inner) ** a * u * u
        H = float(np.trapezoid(integrand, phi))
        rows.append((r, H, H / r ** (2.0 * (1.0 - a))))
    return rows


def isometry_transform(u: DiscreteField, family: WeightFamily,
                       direction: str = "to_flat",
                       variant: str = "rho") -> DiscreteField:
    """v = w^(1/2) u ('to_flat') or u = w^(-1/2) v ('from_flat'), w = rho or
    omega; the exact inverse of itself, round trips are identity to rounding."""
    y = u.grid.centers[:, u.grid.n]
    w = rho_weight(family, y) if variant == "rho" else omega_weight(family, y)
    s = np.sqrt(w)
    if direction == "to_flat":
        vals = u.values * s
    elif direction == "from_flat":
        vals = u.values / s
    else:
        raise ValueError("direction must be 'to_flat' or 'from_flat'")
    return DiscreteField(u.grid, vals, u.parity)


def weighted_dirichlet_energy(field: DiscreteField, weight: WeightModel) -> float:
    """int w |grad u|^2 via the flux-form bilinear energy u^T K u.

    Intended for fields supported away from the boundary, where the
    half-cell boundary terms of K vanish."""
    op = assemble(field.grid, weight, parity="even")
    return float(field.values @ (op.matrix @ field.values))


def flat_form_energy(vfield: DiscreteField, a: float, eps: float) -> float:
    """Q(v) = int |grad v|^2 + int V_rho v^2 for compactly supported v.

    The arc boundary term of the conjugated form is omitted: it vanishes for
    fields supported in the interior, which is the intended use."""
    from .assembly import ConstantWeight
    op = assemble(vfield.grid, ConstantWeight(1.0), parity="even")
    e = float(vfield.values @ (op.matrix @ vfield.values))
    g = vfield.grid
    y = g.centers[:, g.n]
    V = potentials("rho", a, eps, y)[0]
    e += float(np.sum(V * vfield.values ** 2)) * g.h ** (g.n + 1)
    return e
