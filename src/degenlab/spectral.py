"""Conforming nodal discretization of the weighted quadratic forms on the half disk.

The mesh is tensor-product in polar coordinates (r, theta) on
[0, 1] x [0, pi] with bilinear shape functions; mapped elements are annular
sectors, so the curved arc is represented exactly and the nodal space is a
conforming subspace of H^1 of the half disk (discrete Rayleigh quotients can
only over-estimate continuum infima, and nested refinement can only lower
them).  The flat diameter lies on the characteristic plane: every quotient
here constrains its functions to vanish there.

Two assembly routes realize the weighted trace quotient:

* direct: stiffness with the weight w itself; admissible while w is locally
  integrable (exponent > -1).  With eps = 0 the elements touching the plane
  integrate the singular/degenerate factor by Gauss-Jacobi rules matched to
  the exponent, and the weighted boundary mass drops the two arc nodes
  adjacent to the plane.  The Hardy quotients take this route only.
* transformed: substitute v = w^(1/2) u, turning the quotient into a flat
  Dirichlet form plus the closed-form potentials of
  :mod:`degenlab.potentials`; this is the only usable route once the weight
  leaves the locally integrable range (trace exponents <= -1, among them the
  auxiliary exponents b = a - 2), and the two routes agree in the integrable
  range, which the tests exercise.

Eigenvalues come from shifted inverse iteration on the generalized pair
(stiffness, mass), deterministic all-ones start, tolerance 1e-10 (see
:func:`min_rayleigh`).  Inverse iteration converges to the eigenvalue nearest
its shift sigma, so sigma is set a little below a proved lower bound of the
smallest eigenvalue, and only where one is proved; conformity makes every
continuum bound a bound of the discrete minimum, up to quadrature error:

* trace quotient at eps = 0, both routes: sigma = 0.99 (1 - b), from the
  sharp trace constant 1 - b (3 - a for the auxiliary exponent b = a - 2);
* flat Hardy quotient (w == 1): sigma = 0.99 / 4, from the one-dimensional
  Hardy inequality in y with constant 1/4;
* everything else (eps > 0, weighted Hardy): sigma = 0.

If the iteration converges below sigma anyway, the bound failed for that
pencil and the solve raises RuntimeError rather than report an eigenvalue
that need not be the smallest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from .assembly import DiscreteField
from .potentials import potentials
from .weights import WeightFamily, rho as rho_weight

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


def _products(A: np.ndarray) -> np.ndarray:
    """(nq, 4) shape-function values -> (nq, 16) products A_a A_b."""
    return (A[:, :, None] * A[:, None, :]).reshape(len(A), 16)


def _contract(coef: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of (nel, nq) coefficients times (nq, 16)
    products.  einsum's own loop, not a matmul: a threaded BLAS gemm at
    these shapes doubles the CPU time and slows the wall time too."""
    return np.einsum("eq,qk->ek", coef, products)


def assemble_forms(mesh: HalfDiskMesh,
                   stiffness_weight: Optional[Callable] = None,
                   potential: Optional[Callable] = None,
                   domain_mass_weight: Optional[Callable] = None,
                   quad_order: int = 4,
                   sigma_jacobi_exponent: Optional[float] = None):
    """Assemble (K, P, Md): weighted stiffness, potential mass, domain mass.

    All weight callables take an array of ordinates y and must broadcast:
    each is called once per row group, on the (elements, quadrature points)
    array.  When ``sigma_jacobi_exponent`` = b is given, the elements in the
    two theta-rows touching the plane integrate with Gauss-Jacobi rules in
    theta matched to the edge behavior dist(theta)^b of the weights (weights
    are divided by dist^b before quadrature, the rule restores it exactly).
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
    Rloc = (gx + 1.0) / 2.0
    rwt = gw * hr / 2.0

    for jrange, edge in row_groups:
        if len(jrange) == 0:
            continue
        nodes = _element_rows(mesh, jrange)
        r0 = np.repeat(rn[:-1], len(jrange))
        t0 = np.tile(tn[jrange], mesh.nr)
        if edge is None:
            Tloc = (gx + 1.0) / 2.0
            twt = gw * ht / 2.0
            dist_pow = None
        else:
            tqx, tqw = _quad_nodes_1d(max(quad_order, 6), "jacobi", jac)
            s = (tqx + 1.0) / 2.0
            twt = tqw * (ht / 2.0) ** (1.0 + jac)
            Tloc = s if edge == "low" else 1.0 - s
            # dist^b of the Jacobi rule, divided out of the weights
            dist_pow = np.tile(s * ht, len(Rloc)) ** jac
        # quadrature pairs (radial-major), one column per pair
        R = np.repeat(Rloc, len(Tloc))
        T = np.tile(Tloc, len(Rloc))
        ra = r0[:, None] + R * hr
        ta = t0[:, None] + T * ht
        y = ra * np.sin(ta)
        jacdet = np.repeat(rwt, len(Tloc)) * np.tile(twt, len(Rloc)) * ra
        N = np.stack([(1 - R) * (1 - T), (1 - R) * T, R * (1 - T), R * T], axis=1)
        dNr = np.stack([-(1 - T), -T, (1 - T), T], axis=1) / hr
        dNt = np.stack([-(1 - R), (1 - R), -R, R], axis=1) / ht

        def coefficient(fn):
            v = np.asarray(fn(y), dtype=float)
            if dist_pow is not None:
                v = v / dist_pow
            return v * jacdet

        if need_K:
            coef = coefficient(stiffness_weight)
            Ke = (_contract(coef, _products(dNr))
                  + _contract(coef / ra ** 2, _products(dNt)))
            K = K + _accumulate(mesh, nodes, Ke)
        NN = _products(N)
        if need_P:
            P = P + _accumulate(mesh, nodes, _contract(coefficient(potential), NN))
        if need_M:
            Me = _contract(coefficient(domain_mass_weight), NN)
            Md = Md + _accumulate(mesh, nodes, Me)
    return K.tocsr(), P.tocsr(), Md.tocsr()


def assemble_arc_mass(mesh: HalfDiskMesh, weight: Optional[Callable] = None,
                      quad_order: int = 6,
                      skip_sigma_adjacent: bool = False,
                      exclude_nodes: Sequence[int] = ()) -> sp.csr_matrix:
    """Boundary mass on the arc r = 1: int weight(y) u^2 dtheta.

    ``weight`` must broadcast: it is called once, on the (segments, quad_order)
    array of y = sin(theta).  Rows and columns of ``exclude_nodes`` are zero."""
    tn = mesh.theta_nodes
    gx, gw = roots_legendre(quad_order)
    j = np.arange(mesh.ntheta)
    if skip_sigma_adjacent:
        j = j[1:-1]
    t0 = tn[j][:, None]
    ht = (tn[j + 1] - tn[j])[:, None]
    ta = t0 + (gx + 1.0) / 2.0 * ht
    wq = gw * ht / 2.0
    c = wq if weight is None else np.asarray(weight(np.sin(ta)), dtype=float) * wq
    s = (ta - t0) / ht
    N = np.stack([1.0 - s, s], axis=2)
    Me = (c[:, :, None, None] * (N[:, :, :, None] * N[:, :, None, :])).sum(axis=1)
    ends = np.stack([mesh.node_id(mesh.nr, j), mesh.node_id(mesh.nr, j + 1)], axis=1)
    rows = np.repeat(ends, 2, axis=1).ravel()
    cols = np.tile(ends, 2).ravel()
    vals = Me.ravel()
    keep = ~(np.isin(rows, exclude_nodes) | np.isin(cols, exclude_nodes))
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(mesh.nnodes, mesh.nnodes)).tocsr()


# ---------------------------------------------------------------------------
# Generalized minimum-eigenvalue solve
# ---------------------------------------------------------------------------

def min_rayleigh(K: sp.csr_matrix, M: sp.csr_matrix, free: np.ndarray,
                 tol: float = EIG_TOL,
                 sigma: float = 0.0) -> Tuple[float, np.ndarray, float, int]:
    """Smallest generalized eigenvalue of (K, M) on the free dofs.

    Inverse iteration with the shift ``sigma``: one sparse LU of
    K - sigma M (minimum-degree ordering of A^T + A, the pencil being
    symmetric), the deterministic all-ones start, and the Rayleigh quotient,
    residual ||K v - lam M v|| / ||K v|| and stopping test of the unshifted
    pencil.  The iteration converges to the eigenvalue nearest ``sigma``, so
    a shift is only admissible below a proved lower bound of the smallest
    one; if the converged lam lies below ``sigma`` that bound failed and
    RuntimeError is raised instead of returning a possibly wrong eigenpair.
    Returns (lam, M-normalized eigenvector on all nodes, residual,
    iterations)."""
    Kf = K[free][:, free].tocsc()
    Mf = M[free][:, free].tocsr()
    lu = spla.splu((Kf - sigma * Mf).tocsc(), permc_spec="MMD_AT_PLUS_A")
    v = np.ones(len(free))
    mv = Mf @ v
    lam_prev = math.inf
    lam = math.inf
    it = 0
    for it in range(1, MAX_INVERSE_ITER + 1):
        nrm = math.sqrt(abs(float(v @ mv)))
        if nrm == 0.0:
            raise RuntimeError("mass matrix annihilates the iterate (all-zero trace)")
        v = lu.solve(mv / nrm)
        kv = Kf @ v
        mv = Mf @ v
        lam = float(v @ kv) / float(v @ mv)
        res = float(np.linalg.norm(kv - lam * mv) / np.linalg.norm(kv))
        if abs(lam - lam_prev) <= tol * abs(lam) and res <= EIG_RESIDUAL_TOL:
            break
        lam_prev = lam
    if lam < sigma:
        raise RuntimeError(f"inverse iteration converged to lam={lam!r} below the "
                           f"shift sigma={sigma!r}: the lower bound behind the "
                           "shift does not hold for this pencil")
    full = np.zeros(K.shape[0])
    full[free] = v / math.sqrt(abs(float(v @ mv)))
    return lam, full, res, it


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def _rho_fn(b: float, eps: float) -> Callable:
    def w(y):
        return (eps * eps + y * y) ** (b / 2.0)
    return w


def _conjugated_forms(a: float, eps: float, mesh: HalfDiskMesh,
                      quad_order: int) -> sp.csr_matrix:
    """K0 + P + Wb: the flat Dirichlet form, the domain potential and the arc
    potential of the weight rho conjugated away by v = rho^(1/2) u (see
    :func:`degenlab.potentials.potentials`)."""
    def V(y):
        return potentials("rho", a, eps, y)[0]

    def Warc(y):
        return potentials("rho", a, eps, y)[1]

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
        K = _conjugated_forms(b, eps, mesh, quad_order)
        M = assemble_arc_mass(mesh, None)
    else:
        raise ValueError(f"unknown route {route!r}")
    # at eps = 0 the continuum constant 1 - b bounds lam_h from below
    sigma = 0.99 * (1.0 - b) if eps == 0.0 else 0.0
    lam, vec, res, it = min_rayleigh(K, M, free, sigma=sigma)
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
    free = np.setdiff1d(mesh.free_nodes(), mesh.arc_node_ids())
    jac = a if (a is not None and eps == 0.0 and a != 0.0) else None
    if a is not None and a <= -1.0 and eps == 0.0:
        raise ValueError("hardy direct route requires a > -1 at eps=0")

    def mass(y):
        return wfn(y) / (y * y)

    K, _, M = assemble_forms(mesh, stiffness_weight=wfn, domain_mass_weight=mass,
                             quad_order=quad_order, sigma_jacobi_exponent=jac)
    # flat Hardy inequality in y: lam_h >= 1/4 for w == 1
    sigma = 0.99 * 0.25 if weight is None else 0.0
    lam, vec, res, it = min_rayleigh(K, M, free, sigma=sigma)
    wid = "1" if a is None else f"rho[a={a:g},eps={eps:g}]"
    return EigenResult(quotient_id=f"hardy[w={wid}]",
                       a=a if a is not None else 0.0,
                       eps_or_r=eps if eps is not None else 0.0,
                       grid_h=grid_h, lam=lam, residual=res, route="direct",
                       iterations=it, eigenvector=NodalField(mesh, vec))


def eigen_stability_sweep(a: float, r_list: Sequence[float], grid_h: float,
                          quad_order: int = 4) -> list:
    """Table of (r, lam_r, residual) for the dilated weights rho(a, 1/r),
    a in (-1, 1); lam_r -> 1-a as r grows.  The residual is the eigen
    solve's (see :func:`min_rayleigh`)."""
    if not (-1.0 < a < 1.0):
        raise ValueError("eigen stability sweep requires a in (-1, 1)")
    rows = []
    for r in r_list:
        res = trace_eigen(a, 1.0 / r, grid_h, route="direct", quad_order=quad_order)
        rows.append((r, res.lam, res.residual))
    return rows


# ---------------------------------------------------------------------------
# Growth monitor (operates on the cell-centered fields)
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
