"""Conforming nodal discretization of the weighted quadratic forms on the half disk.

The mesh is tensor-product in polar coordinates (r, theta) on
[0, 1] x [0, pi] with bilinear shape functions; mapped elements are annular
sectors, so the curved arc is represented exactly and the nodal space is a
conforming subspace of H^1 of the half disk (discrete Rayleigh quotients can
only over-estimate continuum infima, and nested refinement can only lower
them).  The flat diameter lies on the characteristic plane: every quotient
here constrains its functions to vanish there.

Two routes realize the weighted trace quotient:

* direct: stiffness with the weight w itself; admissible while w is locally
  integrable (exponent > -1).  With eps = 0 the elements touching the plane
  integrate the singular/degenerate factor by Gauss-Jacobi rules matched to
  the exponent, and the weighted boundary mass drops the arc nodes
  adjacent to the plane.
* transformed, at eps = 0 only: substitute v = w^(1/2) u, turning the
  quotient into a flat Dirichlet form plus the potentials of
  :func:`degenlab.potentials.potentials`, here b (b - 2) / (4 y^2) in the
  domain and the constant -b/2 on the arc; this is the only usable route
  once the weight leaves the locally integrable range (trace exponents
  <= -1, among them the auxiliary exponents b = a - 2), and the two routes
  agree in the integrable range, which the tests exercise.

At eps = 0 every trace pencil (both routes) and the flat Hardy pencil
separates on the tensor mesh: the weight |y|^b = r^b sin^b(theta), the
transformed potential and the Hardy mass 1 / y^2 are
products of a radial and an angular factor, and so are the quadrature rules.
The pencil is then K = A (x) B + C (x) D against M = e e^T (x) M_arc (trace)
or C (x) G (Hardy), with tridiagonal one-dimensional factors built by the
element rules :func:`_radial_rule` and :func:`_theta_rows`, and the arc
mass of :func:`assemble_arc_mass`.
:func:`_separable_eigen` diagonalises the radial pencil (A, C), factors the
angular blocks mu_m B + D with one tridiagonal LDL^T, and applies Lanczos to
the discrete Neumann-to-Dirichlet map of the arc (for Hardy, to the lowest
angular block).  No two-dimensional matrix is assembled or factored.

The eps > 0 trace pencils take the direct route only (b > -1); their
weight (eps^2 + y^2)^(b/2) does not separate.  Numbered radius-fastest, the
free dofs make K a band matrix of half-bandwidth nr + 1.  What the pencils
of one mesh share is built once (:func:`_band_geometry`), so
:func:`assemble_forms` is one weight call, two contractions and one
``bincount`` into LAPACK band storage.  :func:`min_rayleigh` factors K once
by band Cholesky (``dpbtrf``, lower) and, like the separable path, applies
Lanczos to the discrete Neumann-to-Dirichlet map of the arc: vectors over
the free arc dofs, one ``dpbtrs`` per step.  Both paths share
:func:`_lanczos_max`, in the arc mass (semi-)inner product from the
all-ones start, and one finishing step: the Ritz vector is lifted once
through the solve onto the mesh, and lam and the residual
||K v - lam M v|| / ||K v|| are those of the full pencil; a residual above
``EIG_RESIDUAL_TOL`` raises.

Every pencil is built and solved on its mirror half theta <= pi/2, with the
natural condition on theta = pi/2: the weights depend on y alone, so each
pencil commutes with x -> -x, and on even vectors P v (P the mirror
prolongation) it is 2 (K_h, M_h), the forms of the half (Bossavit, *Comput.
Methods Appl. Mech. Engrg.* 56, 1986).  Lanczos never left that sector: its
all-ones start is even, and so is each operator it applies.  :func:`_finish`
mirrors the result onto all nodes.

Every element integrates with the Gauss-Legendre rule of ``ELEMENT_ORDER``
points per direction; the arc segments and the Gauss-Jacobi edge row take
``EDGE_ORDER`` points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack
from scipy.special import roots_jacobi, roots_legendre

from .assembly import DiscreteField
from .potentials import potentials
from .weights import WeightFamily, rho as rho_weight

EIG_RESIDUAL_TOL = 1e-9
LANCZOS_TOL = 1e-13
ELEMENT_ORDER = 4       # Gauss-Legendre points per direction of an element
EDGE_ORDER = 6          # points per arc segment and per Gauss-Jacobi edge row
GROWTH_ARC_CELLS = 720  # trapezoid cells on each arc of growth_monitor
CONTRACT_ROWS = 2048    # rows of one matmul block of _contract
MAX_NODES = 2 ** 17     # the most nodes of a polar mesh: h = 1/180
B_MIN = -1e60           # the least trace exponent (see _trace_route)


@dataclass(frozen=True)
class HalfDiskMesh:
    """Polar tensor mesh: radial spacing h = 1/nr, arc spacing ~ pi/ntheta."""

    nr: int
    ntheta: int

    @classmethod
    def from_h(cls, h: float) -> "HalfDiskMesh":
        if not (h > 0.0 and (1.0 / h + 1.0) * (4.0 / h + 1.0) <= MAX_NODES):
            raise ValueError(f"h={h} must be positive, with at most {MAX_NODES} nodes")
        nr = int(round(1.0 / h))
        if nr < 1 or abs(nr * h - 1.0) > 1e-9:
            raise ValueError(f"h={h} must divide the unit radius")
        if nr < 3:
            raise ValueError(f"h={h} must be at most 1/3: Hardy needs two interior radii")
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
    eigenvector: np.ndarray = field(repr=False)      # on all nodes

    def csv_row(self) -> tuple:
        return (self.quotient_id, self.a, self.eps_or_r, self.grid_h,
                self.lam, self.residual)


# ---------------------------------------------------------------------------
# Element arrays and quadrature rules
# ---------------------------------------------------------------------------

def _element_rows(mesh: HalfDiskMesh) -> np.ndarray:
    """Nodes (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1) of every element
    (i, j) of the half, j < ntheta/2, radial-major, shape (nel, 4)."""
    I, J = np.meshgrid(np.arange(mesh.nr), np.arange(mesh.ntheta // 2), indexing="ij")
    return np.stack([mesh.node_id(I + di, J + dj).ravel()
                     for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1))], axis=1)


def _products(A: np.ndarray) -> np.ndarray:
    """(nq, 4) shape-function values -> (nq, 16) products A_a A_b."""
    return (A[:, :, None] * A[:, None, :]).reshape(len(A), 16)


def _contract(coef: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of (..., nq) coefficients times (nq, 16)
    products: one matmul per block of at most ``CONTRACT_ROWS`` rows of coef.
    A cache rule (Goto & van de Geijn, *ACM TOMS* 34(3), 2008), not a thread
    rule: on one OpenBLAS 0.3.31 thread of a 2-core VM, a plain matmul costs
    2 to 3 times as much per row from 3,500 to 4,096 rows, so one over the
    4,096 elements at h = 1/32 took 67-104 us against 34-59 us in blocks, and
    over the 16,384 at h = 1/64 377-503 us against 188-263 us."""
    rows = coef.reshape(-1, coef.shape[-1])
    out = np.empty((len(rows), products.shape[1]))
    for i in range(0, len(rows), CONTRACT_ROWS):
        np.matmul(rows[i:i + CONTRACT_ROWS], products, out=out[i:i + CONTRACT_ROWS])
    return out.reshape(coef.shape[:-1] + products.shape[1:])


def _frozen(rule):
    """The rule's arrays, read-only: the caches below hand them to every caller."""
    for x in rule:
        x.setflags(write=False)
    return tuple(rule)


@functools.cache
def _gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [-1, 1], computed once per order
    and read-only."""
    return _frozen(roots_legendre(order))


@functools.cache
def _gauss_jacobi(order: int, jac: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi points and weights on [-1, 1] for the weight (1 + x)^jac,
    computed once per (order, jac) and read-only."""
    return _frozen(roots_jacobi(order, 0.0, jac))


def _radial_rule(mesh: HalfDiskMesh):
    """Gauss-Legendre rule of every radial element: local points R in [0, 1],
    weights scaled to the element, and the spacing."""
    rn = mesh.r_nodes
    hr = rn[1] - rn[0]
    gx, gw = _gauss_legendre(ELEMENT_ORDER)
    return (gx + 1.0) / 2.0, gw * hr / 2.0, hr


def _theta_rows(mesh: HalfDiskMesh, jac: Optional[float]):
    """The angular rule per group of element rows j < ntheta/2, as tuples
    (rows, local points T in [0, 1], weights, dist^jac at the points or None).

    Gauss-Legendre everywhere when ``jac`` is None.  Otherwise the row
    touching the plane takes the Gauss-Jacobi rule of ``EDGE_ORDER`` points
    for the weight dist(theta)^jac, dist = theta the angular distance to the
    plane; integrands are divided by dist^jac there, the rule restores it."""
    tn = mesh.theta_nodes
    ht = tn[1] - tn[0]
    half = mesh.ntheta // 2
    gx, gw = _gauss_legendre(ELEMENT_ORDER)
    if jac is None:
        return [(np.arange(half), (gx + 1.0) / 2.0, gw * ht / 2.0, None)]
    tqx, tqw = _gauss_jacobi(EDGE_ORDER, jac)
    s = (tqx + 1.0) / 2.0
    return [(np.arange(1, half), (gx + 1.0) / 2.0, gw * ht / 2.0, None),
            (np.array([0]), s, tqw * (ht / 2.0) ** (1.0 + jac), (s * ht) ** jac)]


# ---------------------------------------------------------------------------
# One-dimensional factors of the separable eps = 0 pencils
# ---------------------------------------------------------------------------
# A symmetric tridiagonal matrix is the pair (diagonal, off-diagonal).

def _tridiagonal(n: int, parts) -> Tuple[np.ndarray, np.ndarray]:
    """Sum of 1-D element matrices: ``parts`` holds pairs (elements e, 2 x 2
    matrices), element e joining nodes e and e + 1 of n."""
    d, o = np.zeros(n), np.zeros(n - 1)
    for e, Me in parts:
        d[e] += Me[:, 0, 0]
        d[e + 1] += Me[:, 1, 1]
        o[e] += Me[:, 0, 1]
    return d, o


def _element_matrices(coef: np.ndarray, N: np.ndarray) -> np.ndarray:
    """2 x 2 matrices sum_q coef[e, q] N[q, a] N[q, b] of every element e."""
    return np.einsum("eq,qa,qb->eab", coef, N, N)


def _linear(T: np.ndarray, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of the two linear shape functions at local points T."""
    return np.stack([1.0 - T, T], axis=1), np.broadcast_to([-1.0 / h, 1.0 / h], (len(T), 2))


def _radial_factors(mesh: HalfDiskMesh, weight: Callable):
    """A = int w r phi' phi' dr and C = int w r^-1 phi phi dr, w = weight(r),
    on every radial node, by :func:`_radial_rule`."""
    Rloc, rwt, hr = _radial_rule(mesh)
    ra = mesh.r_nodes[:-1, None] + Rloc * hr
    coef = weight(ra) * rwt * ra
    N, dN = _linear(Rloc, hr)
    e = np.arange(mesh.nr)
    return (_tridiagonal(mesh.nr + 1, [(e, _element_matrices(coef, dN))]),
            _tridiagonal(mesh.nr + 1, [(e, _element_matrices(coef / ra ** 2, N))]))


def _angular_factors(mesh: HalfDiskMesh, weight: Callable, jac: Optional[float] = None):
    """B = int w psi psi dtheta and D = int w psi' psi' dtheta, w =
    weight(sin theta), on the angular nodes 0..ntheta/2 of the half, by the
    rule :func:`_theta_rows` gives for jac."""
    tn = mesh.theta_nodes
    ht = tn[1] - tn[0]
    mass, stiff = [], []
    for rows, T, twt, dist in _theta_rows(mesh, jac):
        c = np.asarray(weight(np.sin(tn[rows][:, None] + T * ht)), dtype=float)
        if dist is not None:
            c = c / dist
        c = c * twt
        N, dN = _linear(T, ht)
        mass.append((rows, _element_matrices(c, N)))
        stiff.append((rows, _element_matrices(c, dN)))
    return _tridiagonal(mesh.ntheta // 2 + 1, mass), _tridiagonal(mesh.ntheta // 2 + 1, stiff)


def assemble_arc_mass(mesh: HalfDiskMesh, weight: Optional[Callable]):
    """Boundary mass int weight(y) u^2 dtheta on the arc r = 1 of the half
    (weight 1 when None), as a tridiagonal over the arc nodes 0..ntheta/2,
    Gauss-Legendre per segment.

    ``weight`` must broadcast: it is called once, on the (segments, EDGE_ORDER)
    array of y = sin(theta)."""
    tn = mesh.theta_nodes
    gx, gw = _gauss_legendre(EDGE_ORDER)
    j = np.arange(mesh.ntheta // 2)
    t0 = tn[j][:, None]
    ht = (tn[j + 1] - tn[j])[:, None]
    ta = t0 + (gx + 1.0) / 2.0 * ht
    wq = gw * ht / 2.0
    c = wq if weight is None else np.asarray(weight(np.sin(ta)), dtype=float) * wq
    s = (ta - t0) / ht
    N = np.stack([1.0 - s, s], axis=2)
    Me = (c[:, :, None, None] * (N[:, :, :, None] * N[:, :, None, :])).sum(axis=1)
    return _tridiagonal(len(j) + 1, [(j, Me)])


def _ones(s):
    return np.ones_like(s)


def _inverse_square(s):
    return 1.0 / (s * s)


def _trace_factors(mesh: HalfDiskMesh, b: float, route: str):
    """1-D factors (radial (A, C), angular (B, D), arc mass, arc potential)
    of the eps = 0 trace pencil K = A (x) B + C (x) D + W M, M = arc mass.

    direct: the weight |y|^b = r^b sin^b(theta) splits, with the Gauss-Jacobi
    edge row for b != 0, and then the arc node next to the plane is a
    zero-mass row (the route drops it).  transformed: the flat form, the
    domain potential c / y^2 = c r^-2 sin^-2(theta) joins D as c G, and the
    arc potential is the constant W; (c, W) are the eps = 0 potentials of
    :func:`degenlab.potentials.potentials` at y = 1."""
    if route == "direct":
        w = functools.partial(rho_weight, WeightFamily(b, 0.0))
        jac = b if b != 0.0 else None
        d, o = assemble_arc_mass(mesh, w)
        if jac is not None:
            d[1] = 0.0
            o[[0, 1]] = 0.0
        return (_radial_factors(mesh, w), _angular_factors(mesh, w, jac), (d, o), 0.0)
    B, D = _angular_factors(mesh, _ones)
    G, _ = _angular_factors(mesh, _inverse_square)
    c, W = potentials(b, 0.0, 1.0)
    return (_radial_factors(mesh, _ones), (B, (D[0] + c * G[0], D[1] + c * G[1])),
            assemble_arc_mass(mesh, None), W)


def _hardy_factors(mesh: HalfDiskMesh):
    """1-D factors (radial (A, C), angular (B, D), G) of the flat Hardy
    pencil: K = A (x) B + C (x) D and M = C (x) G, G = int sin^-2 psi psi."""
    return (_radial_factors(mesh, _ones), _angular_factors(mesh, _ones),
            _angular_factors(mesh, _inverse_square)[0])


# ---------------------------------------------------------------------------
# Minimum-eigenvalue solves
# ---------------------------------------------------------------------------

def _tri_apply(t, X: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal t times X along X's first axis."""
    shape = (-1,) + (1,) * (X.ndim - 1)
    d, e = t[0].reshape(shape), t[1].reshape(shape)
    Y = d * X
    Y[:-1] += e * X[1:]
    Y[1:] += e * X[:-1]
    return Y


def _kron_apply(R, S, V: np.ndarray) -> np.ndarray:
    """(R (x) S) v for v = V.ravel(), V of shape (radial, angular)."""
    return _tri_apply(R, _tri_apply(S, V.T).T)


def _radial_modes(A, C) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the radial pencil A x = mu C x, ascending, with X^T C X = I.

    C = L diag(d) L^T by dpttrf, F = diag(d)^(1/2) L^T; the inverse of the
    bidiagonal F is formed row by row, and F^-T A F^-1 is one standard eigh
    of radial size."""
    d, e, info = lapack.dpttrf(C[0], C[1])
    if info != 0:
        raise np.linalg.LinAlgError(f"radial mass not positive definite (dpttrf info={info})")
    n = len(d)
    U = np.eye(n)                       # L^-T, unit upper triangular
    for i in range(n - 2, -1, -1):
        U[i, i + 1:] = -e[i] * U[i + 1, i + 1:]
    Finv = U / np.sqrt(d)
    S = np.einsum("ki,kj->ij", Finv, _tri_apply(A, Finv))
    mu, Y = scipy.linalg.eigh(S, driver="evd")
    return mu, Finv @ Y


def _top_ritz_pair(alpha: list, beta: list) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue of the symmetric tridiagonal (alpha, beta) and its
    unit eigenvector: LAPACK ``dstebz`` (by index) and ``dstein``, the
    routines of ``scipy.linalg.eigh_tridiagonal(select="i")`` without its
    argument checks."""
    k = len(alpha)
    if k == 1:
        return alpha[0], np.ones(1)
    d, e = np.array(alpha), np.array(beta)
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info == 0:
        z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"Ritz pair of the Lanczos tridiagonal failed (info={info})")
    return float(w[0]), z[:, 0]


def _lanczos_max(op: Callable, mass) -> Tuple[np.ndarray, int]:
    """Eigenvector of the largest eigenvalue of ``op``, self-adjoint in the
    (semi-)inner product of the symmetric positive semi-definite tridiagonal
    ``mass``, mass-normalised, on the dofs of ``mass``: the free arc dofs of
    a trace pencil, the free angular dofs of the lowest Hardy block.

    Lanczos with full reorthogonalisation (Parlett, *The Symmetric Eigenvalue
    Problem*, 1998) from the all-ones start; ``op`` takes M g, the product
    at hand, so that the Neumann-to-Dirichlet map g -> E^T K^-1 E M g is one
    solve.  It stops when the Ritz residual |beta_k s_k| falls to
    ``LANCZOS_TOL`` times the Ritz value, or when the Krylov space is
    invariant.  Returns (Ritz vector, steps)."""
    n = len(mass[0])
    q = np.ones(n)
    mq = _tri_apply(mass, q)
    nrm = math.sqrt(float(np.einsum("i,i->", q, mq)))
    if nrm == 0.0:
        raise RuntimeError("the mass annihilates the all-ones start")
    # rows: the Lanczos vectors q_i and M q_i; the buffers double when full
    Q, MQ = np.empty((min(n, 16), n)), np.empty((min(n, 16), n))
    Q[0], MQ[0] = q / nrm, mq / nrm
    alpha, beta = [], []
    for k in range(1, n + 1):
        w = op(MQ[k - 1])
        alpha.append(float(np.einsum("i,i->", w, MQ[k - 1])))
        for _ in range(2):                  # classical Gram-Schmidt, twice
            w = w - np.einsum("k,ki->i", np.einsum("ki,i->k", MQ[:k], w), Q[:k])
        mw = _tri_apply(mass, w)
        b = math.sqrt(max(float(np.einsum("i,i->", w, mw)), 0.0))
        theta, s = _top_ritz_pair(alpha, beta)
        if b * abs(s[-1]) <= LANCZOS_TOL * theta or k == n:
            break
        beta.append(b)
        if k == len(Q):
            Q, MQ = (np.concatenate([X, np.empty_like(X)]) for X in (Q, MQ))
        Q[k], MQ[k] = w / b, mw / b
    return np.einsum("k,ki->i", s, Q[:k]), k


def _finish(v: np.ndarray, kv: np.ndarray, mv: np.ndarray, steps: int, mesh: HalfDiskMesh,
            dofs: np.ndarray) -> Tuple[float, np.ndarray, float, int]:
    """(lam, eigenvector, residual, steps) from v and the half pencil's K v
    and M v, at the node numbers ``dofs`` (of v's shape) of the half.

    The half forms hold half of each row of the full pencil on the mid
    column j = ntheta/2, so v, K v and M v are mirrored (j -> ntheta - j)
    onto all nodes, K v and M v with the mid column doubled.  lam is the
    Rayleigh quotient and the residual ||K v - lam M v|| / ||K v|| of the
    full pencil; a residual above ``EIG_RESIDUAL_TOL`` (or nan) raises
    RuntimeError.  The eigenvector is v / ||v||_M on all nodes."""
    j = dofs % (mesh.ntheta + 1)
    mid = np.where(2 * j == mesh.ntheta, 2.0, 1.0)
    full = np.zeros((3, mesh.nnodes))
    full[:, dofs + mesh.ntheta - 2 * j] = full[:, dofs] = (v, mid * kv, mid * mv)
    v, kv, mv = full
    vmv = float(np.sum(v * mv))
    lam = float(np.sum(v * kv)) / vmv
    r = kv - lam * mv
    res = math.sqrt(float(np.sum(r * r)) / float(np.sum(kv * kv)))
    if not res <= EIG_RESIDUAL_TOL:
        raise RuntimeError(f"eigen solve residual {res:.3g} above "
                           f"{EIG_RESIDUAL_TOL:g} after {steps} Lanczos steps")
    return lam, v / math.sqrt(vmv), res, steps


def _separable_eigen(mesh: HalfDiskMesh, radial, angular, mass, shift: float = 0.0,
                     trace: bool = True) -> Tuple[float, np.ndarray, float, int]:
    """Smallest eigenpair of the pencil K = A (x) B + C (x) D + shift M
    against M = E (x) mass on the free dofs, every factor tridiagonal on all
    nodes of its direction.  trace: E = e e^T, e the arc row, the radial dofs
    run to the arc and ``mass`` is the arc mass; otherwise (Hardy) E = C and
    the arc is fixed.

    The angular factors and ``mass`` are those of the half (angular nodes
    0..ntheta/2).  The radial modes X (A X = C X diag(mu), X^T C X = I) turn K into the
    blocks T_m = mu_m B + D, factored at once by one dpttrf of their stacked
    tridiagonals.  For a trace pencil M is e e^T (x) mass, and the arc trace
    g of an eigenvector solves g = lam sum_m z_m^2 T_m^-1 mass g, z = X[-1]
    (the discrete Neumann-to-Dirichlet map); for Hardy the smallest block
    T_0 alone holds the minimum, g = lam T_0^-1 G g.  The largest eigenvalue
    1/lam of that map comes from :func:`_lanczos_max`; the eigenvector is
    rebuilt on the half in Kronecker form, and :func:`_finish` mirrors it
    onto the mesh, where lam and the residual ||K v - lam M v|| / ||K v||
    are those of the full pencil.
    Returns (lam, M-normalized eigenvector on all nodes, residual, Lanczos
    steps), as :func:`min_rayleigh` does."""
    rs = slice(1, None) if trace else slice(1, -1)
    A, C = ((t[0][rs], t[1][rs]) for t in radial)
    B, D, Ma = ((t[0][1:], t[1][1:]) for t in (*angular, mass))
    mu, X = _radial_modes(A, C)
    z = X[-1]
    if not trace:
        mu, X, z = mu[:1], X[:, :1], np.ones(1)
    k, n = len(mu), len(B[0])
    e = np.pad(mu[:, None] * B[1] + D[1], ((0, 0), (0, 1)))     # no coupling between blocks
    df, ef, info = lapack.dpttrf((mu[:, None] * B[0] + D[0]).ravel(), e.ravel()[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(f"angular block not positive definite (dpttrf info={info})")

    def blocks(u):
        """z_m T_m^-1 u for every mode m, one dpttrs on the stacked blocks."""
        y, _ = lapack.dpttrs(df, ef, np.tile(u, k))
        return z[:, None] * y.reshape(k, n)

    g, steps = _lanczos_max(lambda mg: z @ blocks(mg), Ma)
    V = np.einsum("im,mj->ij", X, blocks(_tri_apply(Ma, g)))
    if trace:
        MV = np.zeros_like(V)
        MV[-1] = _tri_apply(Ma, V[-1])
    else:
        MV = _kron_apply(C, Ma, V)
    KV = _kron_apply(A, B, V) + _kron_apply(C, D, V) + shift * MV
    dofs = np.arange(mesh.nnodes).reshape(mesh.nr + 1, mesh.ntheta + 1)[rs, 1:len(B[0]) + 1]
    return _finish(V, KV, MV, steps, mesh, dofs)


# ---------------------------------------------------------------------------
# The eps > 0 trace pencil, assembled straight into band storage
# ---------------------------------------------------------------------------

class _BandGeometry(NamedTuple):
    """What the eps > 0 pencils of one mesh share; every array is read-only."""

    perm: np.ndarray        # the free nodes, radius-fastest
    y: np.ndarray           # ordinates, (radial elements, angular elements, points)
    jacdet: np.ndarray      # quadrature weight times the Jacobian r, (radial, 1, points)
    jacdet_r2: np.ndarray   # jacdet / r^2
    dr: np.ndarray          # (points, 16) products of the radial derivatives
    dt: np.ndarray          # and of the angular ones
    entries: np.ndarray     # element entries (flat) in the stored lower band
    band: np.ndarray        # their flat positions in the band, column-major
    arc: np.ndarray         # positions of the free arc nodes, by angle
    shape: Tuple[int, int]  # of the band, (kd + 1, n)


@functools.lru_cache(maxsize=1)
def _band_geometry(mesh: HalfDiskMesh) -> _BandGeometry:
    """The geometry of the eps > 0 pencils on ``mesh``, built once: only the
    weight changes between the ``lambda_r`` rows of one mesh.

    It covers the half: elements j < ntheta/2, free nodes j <= ntheta/2.
    The free nodes are numbered radius-fastest (by angular index, then radial
    index), so the bilinear stencil couples numbers at most nr + 1 apart: K
    is a band matrix of half-bandwidth kd = nr + 1, stored as LAPACK's lower
    band ab[d, j] = K[j + d, j].  Every element integrates with the
    Gauss-Legendre rule of ``ELEMENT_ORDER`` points per direction."""
    half = mesh.ntheta // 2
    free = mesh.free_nodes()
    free = free[free % (mesh.ntheta + 1) <= half]
    i, j = np.divmod(free, mesh.ntheta + 1)
    perm = free[np.lexsort((i, j))]
    pos = np.full(mesh.nnodes, -1)
    pos[perm] = np.arange(len(perm))
    (_, Tloc, twt, _), = _theta_rows(mesh, None)
    Rloc, rwt, hr = _radial_rule(mesh)
    tn = mesh.theta_nodes
    ht = tn[1] - tn[0]
    # quadrature pairs radial-major; r and the Jacobian are the same for every theta
    R = np.repeat(Rloc, len(Tloc))
    T = np.tile(Tloc, len(Rloc))
    ra = (mesh.r_nodes[:-1, None] + R * hr)[:, None, :]
    ta = tn[:half, None] + T * ht
    jacdet = np.repeat(rwt, len(Tloc)) * np.tile(twt, len(Rloc)) * ra
    dNr = np.stack([-(1 - T), -T, (1 - T), T], axis=1) / hr
    dNt = np.stack([-(1 - R), (1 - R), -R, R], axis=1) / ht
    nodes = pos[_element_rows(mesh)]
    row, col = np.broadcast_arrays(nodes[:, :, None], nodes[:, None, :])
    lower = (col >= 0) & (row >= col)
    d = (row - col)[lower]
    kd = int(d.max())
    return _BandGeometry(*_frozen((
        perm, ra * np.sin(ta), jacdet, jacdet / ra ** 2, _products(dNr), _products(dNt),
        np.flatnonzero(lower), col[lower] * (kd + 1) + d,
        pos[mesh.node_id(mesh.nr, np.arange(1, half + 1))])), (kd + 1, len(perm)))


def assemble_forms(mesh: HalfDiskMesh, weight: Callable) -> np.ndarray:
    """The stiffness int w |grad u|^2 of the weight w = ``weight`` over the
    half theta <= pi/2, on its free dofs, in the lower band storage of
    :func:`_band_geometry`: the half form, 1/2 P^T K P of the stiffness K
    of the whole half disk for the mirror prolongation P.

    ``weight`` takes an array of ordinates y and must broadcast: it is called
    once, on the (radial elements, angular elements, quadrature points)
    array."""
    g = _band_geometry(mesh)
    w = np.asarray(weight(g.y), dtype=float)
    Ke = _contract(w * g.jacdet, g.dr)
    Ke += _contract(w * g.jacdet_r2, g.dt)
    return np.bincount(g.band, weights=Ke.ravel()[g.entries],
                       minlength=g.shape[0] * g.shape[1]).reshape(g.shape, order="F")


def min_rayleigh(mesh: HalfDiskMesh, K: np.ndarray, arc) -> Tuple[float, np.ndarray, float, int]:
    """Smallest eigenvalue of the trace pencil of the band stiffness ``K``
    of :func:`assemble_forms` and the arc mass ``arc`` of
    :func:`assemble_arc_mass`, both of the half theta <= pi/2, on its free
    dofs: the least eigenvalue of the whole half disk's pencil.

    K is factored once by LAPACK band Cholesky (``dpbtrf``, lower; a K that
    is not positive definite raises LinAlgError naming its info).
    :func:`_lanczos_max` runs on the ntheta/2 free arc dofs E, on the
    discrete Neumann-to-Dirichlet map g -> E^T K^-1 E Ma g (Ma the arc
    mass), one scatter, ``dpbtrs`` and gather per step.  The Ritz vector g
    is lifted once, v = K^-1 E Ma g, and K v is the band product ``dsbmv``
    of the unfactored K.  Returns (lam, M-normalized eigenvector on all
    nodes, residual ||K v - lam M v|| / ||K v||, Lanczos steps), as
    :func:`_finish` gives them."""
    g = _band_geometry(mesh)
    factor, info = lapack.dpbtrf(K, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"stiffness not positive definite (dpbtrf info={info})")
    Ma = (arc[0][1:], arc[1][1:])

    def solve(mg):                      # K^-1 E mg on every free dof
        u = np.zeros(len(g.perm))
        u[g.arc] = mg
        return lapack.dpbtrs(factor, u, lower=1)[0]

    q, steps = _lanczos_max(lambda mg: solve(mg)[g.arc], Ma)
    v = solve(_tri_apply(Ma, q))
    mv = np.zeros_like(v)
    mv[g.arc] = _tri_apply(Ma, v[g.arc])
    kv = blas.dsbmv(len(K) - 1, 1.0, K, v, lower=1)
    return _finish(v, kv, mv, steps, mesh, g.perm)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def _trace_route(b: float, eps: float) -> str:
    """The route :func:`trace_eigen` takes for (b, eps): ``B_MIN`` <= b < 1
    and eps >= 0, and eps > 0 takes the direct route, which needs b > -1.
    Any other (b, eps) raises ValueError.

    lam grows like b^2 (0.027 b^2 at h = 1/3), and Lanczos squares 1/lam,
    which underflows past lam = 1e150 (b near -1e77 on coarse meshes); at
    B_MIN = -1e60, lam stays below 1e119 on every mesh."""
    if not B_MIN <= b < 1.0:
        raise ValueError(f"trace exponent must satisfy {B_MIN:g} <= b < 1")
    if not (eps >= 0.0 and math.isfinite(eps * eps)):
        raise ValueError(f"eps must be >= 0 with a finite square, got {eps}")
    route = "direct" if b > -1.0 else "transformed"
    if eps > 0.0 and route == "transformed":
        raise ValueError(f"eps > 0 takes the direct route, which needs b > -1, got b={b}")
    return route


def trace_eigen(b: float, eps: float, grid_h: float) -> EigenResult:
    """Sharp constant of int rho^b |grad u|^2 >= lam int_arc rho^b u^2, u|_plane = 0.

    The minimum tends to 1 - b under refinement (eigenfunction y^(1-b)).
    At eps = 0 the route follows b: for b > -1 the direct route assembles the
    weighted quotient literally; otherwise the transformed route conjugates
    by |y|^(b/2) and uses the closed-form potentials (valid for every b < 1).
    Both separate in (r, theta) and take :func:`_separable_eigen`.  For
    eps > 0 the direct pencil is assembled and solved by :func:`min_rayleigh`.
    :func:`_trace_route` states which (b, eps) are taken."""
    route = _trace_route(b, eps)
    mesh = HalfDiskMesh.from_h(grid_h)
    if eps == 0.0:
        lam, vec, res, it = _separable_eigen(mesh, *_trace_factors(mesh, b, route))
    else:
        wfn = functools.partial(rho_weight, WeightFamily(b, eps))
        lam, vec, res, it = min_rayleigh(mesh, assemble_forms(mesh, wfn),
                                         assemble_arc_mass(mesh, wfn))
    return EigenResult(f"trace[b={b:g}]", b, eps, grid_h, lam, res, route, it, vec)


def hardy_quotient(grid_h: float) -> EigenResult:
    """min int |grad u|^2 / int u^2 / y^2 over u vanishing on the plane and on
    the arc; the continuum constant is 1/4 (not attained)."""
    mesh = HalfDiskMesh.from_h(grid_h)
    lam, vec, res, it = _separable_eigen(mesh, *_hardy_factors(mesh), trace=False)
    return EigenResult("hardy[w=1]", 0.0, 0.0, grid_h, lam, res, "direct", it, vec)


# ---------------------------------------------------------------------------
# Growth monitor (operates on the cell-centered fields)
# ---------------------------------------------------------------------------

def growth_monitor(field: DiscreteField, a: float, r_list: Sequence[float],
                   trace: Optional[Callable] = None) -> list:
    """Rows (r, H(r), H(r)/r^(2(1-a))) with
    H(r) = r^(-(1+a)) int_{arc r} y^a u^2 = int_0^pi sin(phi)^a u^2 dphi.

    Trapezoid quadrature on ``GROWTH_ARC_CELLS`` arc cells, from samples
    interpolated from the cell-centered field (see
    :meth:`DiscreteField.interpolate`, which needs ``trace`` where an arc
    point's stencil leaves the grid); odd fields vanish at the endpoints,
    where the integrand is set to its limit 0 (integrable for a > -1)."""
    if not -1.0 < a < 1.0:
        raise ValueError("growth monitor requires a in (-1, 1)")
    if max(r_list) > 1.0 + 1e-12:
        raise ValueError("arc radius outside the unit half ball of the grid")
    rows = []
    phi = np.linspace(0.0, math.pi, GROWTH_ARC_CELLS + 1)
    inner = phi[1:-1]
    for r in r_list:
        pts = np.stack([r * np.cos(inner), r * np.sin(inner)], axis=1)
        u = field.interpolate(pts, trace=trace)
        integrand = np.zeros(GROWTH_ARC_CELLS + 1)
        integrand[1:-1] = np.sin(inner) ** a * u * u
        H = float(np.trapezoid(integrand, phi))
        rows.append((r, H, H / r ** (2.0 * (1.0 - a))))
    return rows
