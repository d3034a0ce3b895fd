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

At eps = 0 every trace pencil (both routes) and the flat Hardy pencil
separates on the tensor mesh: the weight |y|^b = r^b sin^b(theta), the
transformed potential b (b - 2) / (4 y^2) and the Hardy mass 1 / y^2 are
products of a radial and an angular factor, and so are the quadrature rules.
The pencil is then K = A (x) B + C (x) D against M = e e^T (x) M_arc (trace)
or C (x) G (Hardy), with tridiagonal one-dimensional factors built by the
rules of :func:`assemble_forms` and :func:`assemble_arc_mass`.
:func:`_separable_eigen` diagonalises the radial pencil (A, C), factors the
angular blocks mu_m B + D with one tridiagonal LDL^T, and applies Lanczos to
the discrete Neumann-to-Dirichlet map of the arc (for Hardy, to the lowest
angular block).  No two-dimensional matrix is assembled or factored.

The other pencils (eps > 0, weighted Hardy) are assembled, and
:func:`min_rayleigh` applies Lanczos to K^-1 M.  Numbered radius-fastest,
the free dofs of the tensor mesh make K a band matrix of half-bandwidth
nr + 1 (nr for Hardy, whose arc is fixed), factored once by LAPACK band
Cholesky (``dpbtrf``, lower) and solved by ``dpbtrs``.  Both paths share
:func:`_lanczos_max`, in the mass (semi-)inner product from the all-ones
start, and one finishing step: the Ritz vector is mapped once more through
the solve, so it lies in the pencil's range, and lam and the residual
||K v - lam M v|| / ||K v|| are those of the full pencil; a residual above
``EIG_RESIDUAL_TOL`` raises.  Up to h = 1/64 every dense call of the
separable path stays below the sizes at which OpenBLAS starts a second
thread, and every vector product of the Lanczos iteration is an einsum (see
:func:`_contract`); only ``dpbtrf`` at h = 1/64 threads.

Every element integrates with the Gauss-Legendre rule of ``ELEMENT_ORDER``
points per direction; the arc segments and the Gauss-Jacobi edge rows take
``EDGE_ORDER`` points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.special import roots_jacobi, roots_legendre

from .assembly import DiscreteField
from .potentials import potentials
from .weights import WeightFamily, rho as rho_weight

EIG_RESIDUAL_TOL = 1e-9
LANCZOS_TOL = 1e-13
ELEMENT_ORDER = 4       # Gauss-Legendre points per direction of an element
EDGE_ORDER = 6          # points per arc segment and per Gauss-Jacobi edge row
GROWTH_ARC_CELLS = 720  # trapezoid cells on each arc of growth_monitor


@dataclass(frozen=True)
class HalfDiskMesh:
    """Polar tensor mesh: radial spacing h = 1/nr, arc spacing ~ pi/ntheta."""

    nr: int
    ntheta: int

    @classmethod
    def from_h(cls, h: float) -> "HalfDiskMesh":
        if not h > 0.0:
            raise ValueError(f"h={h} must be positive")
        nr = int(round(1.0 / h))
        if nr < 1 or abs(nr * h - 1.0) > 1e-9:
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


def _products(A: np.ndarray) -> np.ndarray:
    """(nq, 4) shape-function values -> (nq, 16) products A_a A_b."""
    return (A[:, :, None] * A[:, None, :]).reshape(len(A), 16)


def _contract(coef: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Sum over quadrature points of (nel, nq) coefficients times (nq, 16)
    products.  einsum's own loop, not a matmul.

    The rule for every dense call in this module, measured on a 2-core
    machine with OpenBLAS 0.3.31 and ``OPENBLAS_NUM_THREADS=2``: a call that
    OpenBLAS threads leaves its second thread spinning for about 130 ms after
    it returns, which doubles the CPU time of a short solve.  Generalized
    ``scipy.linalg.eigh`` threads from n = 32 and ``numpy.linalg.eigh`` from
    n = 31; standard ``scipy.linalg.eigh`` from n = 64 with the evr driver
    and n = 128 with evd; ``solve_triangular`` with a matrix right-hand side
    from n = 16; ``matmul`` from about 127^3; a ddot, ``numpy.linalg.norm``
    of an array among them, of 16,000 entries (not of 4,000).  einsum,
    numpy's own sums and the tridiagonal LAPACK routines used here
    (``dpttrf``, ``dpttrs``, ``eigh_tridiagonal``) ran on one thread at
    every size measured.  The band Cholesky ``dpbtrf`` with ``lower=1``
    (n = 4,064 and 16,320) stays on one thread at half-bandwidth kd = 33
    (h = 1/32) but threads at kd = 65 (h = 1/64), where it is slower on two
    threads than on one (17 to 19 against 13 ms); with ``lower=0`` it threads
    already at kd = 33, and takes 4 times as long there.  ``dpbtrs`` ran on
    one thread at both sizes.  numpy and scipy each bundle their own
    OpenBLAS with its own thread pool, so a numpy ddot or gemv that threads
    in the same loop as a threaded ``dpbtrf`` puts two spinning threads on
    the two cores: that is why the Lanczos products are einsums."""
    return np.einsum("eq,qk->ek", coef, products)


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
    """The angular rule per group of element rows, as tuples (rows, local
    points T in [0, 1], weights, dist^jac at the points or None).

    Gauss-Legendre everywhere when ``jac`` is None.  Otherwise the two rows
    touching the plane take the Gauss-Jacobi rule of ``EDGE_ORDER`` points
    for the weight dist(theta)^jac, dist being the angular distance to the
    plane; integrands are divided by dist^jac there, the rule restores it."""
    tn = mesh.theta_nodes
    ht = tn[1] - tn[0]
    gx, gw = _gauss_legendre(ELEMENT_ORDER)
    if jac is None:
        groups = [(np.arange(mesh.ntheta), None)]
    else:
        groups = [(np.arange(1, mesh.ntheta - 1), None),
                  (np.array([0]), "low"), (np.array([mesh.ntheta - 1]), "high")]
    out = []
    for rows, edge in groups:
        if len(rows) == 0:
            continue
        if edge is None:
            out.append((rows, (gx + 1.0) / 2.0, gw * ht / 2.0, None))
            continue
        tqx, tqw = _gauss_jacobi(EDGE_ORDER, jac)
        s = (tqx + 1.0) / 2.0
        out.append((rows, s if edge == "low" else 1.0 - s,
                    tqw * (ht / 2.0) ** (1.0 + jac), (s * ht) ** jac))
    return out


def assemble_forms(mesh: HalfDiskMesh, stiffness_weight: Callable,
                   mass_weight: Optional[Callable] = None,
                   sigma_jacobi_exponent: Optional[float] = None):
    """Assemble (K, M): the stiffness int w |grad u|^2 of the weight w =
    ``stiffness_weight`` and the domain mass int m u^2 of m = ``mass_weight``
    (zero when None), such as a potential or the Hardy mass.

    All weight callables take an array of ordinates y and must broadcast:
    each is called once per row group, on the (elements, quadrature points)
    array.  When ``sigma_jacobi_exponent`` = b is given, the elements in the
    two theta-rows touching the plane integrate with Gauss-Jacobi rules in
    theta matched to the edge behavior dist(theta)^b of the weights (weights
    are divided by dist^b before quadrature, the rule restores it exactly).
    """
    K = sp.coo_matrix((mesh.nnodes, mesh.nnodes))
    M = sp.coo_matrix((mesh.nnodes, mesh.nnodes))

    rn, tn = mesh.r_nodes, mesh.theta_nodes
    Rloc, rwt, hr = _radial_rule(mesh)
    ht = tn[1] - tn[0]

    for jrange, Tloc, twt, dist in _theta_rows(mesh, sigma_jacobi_exponent):
        nodes = _element_rows(mesh, jrange)
        r0 = np.repeat(rn[:-1], len(jrange))
        t0 = np.tile(tn[jrange], mesh.nr)
        dist_pow = None if dist is None else np.tile(dist, len(Rloc))
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

        coef = coefficient(stiffness_weight)
        Ke = (_contract(coef, _products(dNr))
              + _contract(coef / ra ** 2, _products(dNt)))
        K = K + _accumulate(mesh, nodes, Ke)
        if mass_weight is not None:
            Me = _contract(coefficient(mass_weight), _products(N))
            M = M + _accumulate(mesh, nodes, Me)
    return K.tocsr(), M.tocsr()


def _arc_elements(mesh: HalfDiskMesh, weight: Optional[Callable],
                  skip_sigma_adjacent: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Arc segments j (from theta_j to theta_j+1) and their 2 x 2 element
    masses int weight(sin theta) N_a N_b dtheta, Gauss-Legendre per segment."""
    tn = mesh.theta_nodes
    gx, gw = _gauss_legendre(EDGE_ORDER)
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
    return j, (c[:, :, None, None] * (N[:, :, :, None] * N[:, :, None, :])).sum(axis=1)


def assemble_arc_mass(mesh: HalfDiskMesh, weight: Optional[Callable] = None,
                      skip_sigma_adjacent: bool = False,
                      exclude_nodes: Sequence[int] = ()) -> sp.csr_matrix:
    """Boundary mass on the arc r = 1: int weight(y) u^2 dtheta.

    ``weight`` must broadcast: it is called once, on the (segments, EDGE_ORDER)
    array of y = sin(theta).  Rows and columns of ``exclude_nodes`` are zero."""
    j, Me = _arc_elements(mesh, weight, skip_sigma_adjacent)
    ends = np.stack([mesh.node_id(mesh.nr, j), mesh.node_id(mesh.nr, j + 1)], axis=1)
    rows = np.repeat(ends, 2, axis=1).ravel()
    cols = np.tile(ends, 2).ravel()
    vals = Me.ravel()
    keep = ~(np.isin(rows, exclude_nodes) | np.isin(cols, exclude_nodes))
    return sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(mesh.nnodes, mesh.nnodes)).tocsr()


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
    on every radial node, by the radial rule of :func:`assemble_forms`."""
    Rloc, rwt, hr = _radial_rule(mesh)
    ra = mesh.r_nodes[:-1, None] + Rloc * hr
    coef = weight(ra) * rwt * ra
    N, dN = _linear(Rloc, hr)
    e = np.arange(mesh.nr)
    return (_tridiagonal(mesh.nr + 1, [(e, _element_matrices(coef, dN))]),
            _tridiagonal(mesh.nr + 1, [(e, _element_matrices(coef / ra ** 2, N))]))


def _angular_factors(mesh: HalfDiskMesh, weight: Callable, jac: Optional[float] = None):
    """B = int w psi psi dtheta and D = int w psi' psi' dtheta, w =
    weight(sin theta), on every angular node, by the angular rule of
    :func:`assemble_forms` with ``sigma_jacobi_exponent`` = jac."""
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
    return _tridiagonal(mesh.ntheta + 1, mass), _tridiagonal(mesh.ntheta + 1, stiff)


def _arc_factor(mesh: HalfDiskMesh, weight: Optional[Callable] = None,
                skip_sigma_adjacent: bool = False):
    """The arc mass of :func:`assemble_arc_mass` as a tridiagonal over the
    arc nodes; with ``skip_sigma_adjacent`` the two arc nodes next to the
    plane are zero-mass rows, as the direct route excludes them."""
    d, o = _tridiagonal(mesh.ntheta + 1, [_arc_elements(mesh, weight, skip_sigma_adjacent)])
    if skip_sigma_adjacent:
        for j in (1, mesh.ntheta - 1):
            d[j] = 0.0
            o[j - 1] = o[j] = 0.0
    return d, o


def _ones(s):
    return np.ones_like(s)


def _inverse_square(s):
    return 1.0 / (s * s)


def _trace_factors(mesh: HalfDiskMesh, b: float, route: str):
    """1-D factors (radial (A, C), angular (B, D), arc mass, arc potential)
    of the eps = 0 trace pencil K = A (x) B + C (x) D + W M, M = arc mass.

    direct: the weight |y|^b = r^b sin^b(theta) splits, with the Gauss-Jacobi
    edge rows for b != 0.  transformed: the flat form, the domain potential
    b (b - 2) / (4 y^2) = c r^-2 sin^-2(theta) joins D as c G, and the arc
    potential is the constant W = -b/2."""
    if route == "direct":
        w = functools.partial(rho_weight, WeightFamily(b, 0.0))
        jac = b if b != 0.0 else None
        return (_radial_factors(mesh, w), _angular_factors(mesh, w, jac),
                _arc_factor(mesh, w, skip_sigma_adjacent=jac is not None), 0.0)
    B, D = _angular_factors(mesh, _ones)
    G, _ = _angular_factors(mesh, _inverse_square)
    c = b * (b - 2.0) / 4.0
    return (_radial_factors(mesh, _ones), (B, (D[0] + c * G[0], D[1] + c * G[1])),
            _arc_factor(mesh), -b / 2.0)


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


def _lanczos_max(op: Callable, mass: Callable, n: int):
    """Eigenvector of the largest eigenvalue of ``op``, self-adjoint in the
    (semi-)inner product of the symmetric positive semi-definite matrix that
    ``mass`` applies, mass-normalised.

    Lanczos with full reorthogonalisation (Parlett, *The Symmetric Eigenvalue
    Problem*, 1998) from the all-ones start; ``op`` takes M g, the product
    at hand, so that an operator K^-1 M is one solve.  It stops when the Ritz
    residual |beta_k s_k| falls to ``LANCZOS_TOL`` times the Ritz value, or
    when the Krylov space is invariant.  Returns (Ritz vector, steps).

    Every vector product is an einsum, not a ddot or gemv (see
    :func:`_contract`)."""
    q = np.ones(n)
    mq = mass(q)
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
        mw = mass(w)
        b = math.sqrt(max(float(np.einsum("i,i->", w, mw)), 0.0))
        theta, s = scipy.linalg.eigh_tridiagonal(alpha, beta, select="i",
                                                 select_range=(k - 1, k - 1))
        if b * abs(s[-1, 0]) <= LANCZOS_TOL * theta[0] or k == n:
            break
        beta.append(b)
        if k == len(Q):
            Q, MQ = (np.concatenate([X, np.empty_like(X)]) for X in (Q, MQ))
        Q[k], MQ[k] = w / b, mw / b
    return np.einsum("k,ki->i", s[:, 0], Q[:k]), k


def _finish(v: np.ndarray, kv: np.ndarray, mv: np.ndarray, steps: int, nnodes: int,
            dofs: np.ndarray) -> Tuple[float, np.ndarray, float, int]:
    """(lam, eigenvector, residual, steps) from v and the pencil's K v and M v.

    lam is the Rayleigh quotient and the residual ||K v - lam M v|| / ||K v||,
    both from numpy sums, not ddots (see :func:`_contract`); a residual above
    ``EIG_RESIDUAL_TOL`` (or nan) raises RuntimeError.  The eigenvector is
    v / ||v||_M at the node numbers ``dofs`` (of v's shape), zero elsewhere."""
    vmv = float(np.sum(v * mv))
    lam = float(np.sum(v * kv)) / vmv
    r = kv - lam * mv
    res = math.sqrt(float(np.sum(r * r)) / float(np.sum(kv * kv)))
    if not res <= EIG_RESIDUAL_TOL:
        raise RuntimeError(f"eigen solve residual {res:.3g} above "
                           f"{EIG_RESIDUAL_TOL:g} after {steps} Lanczos steps")
    full = np.zeros(nnodes)
    full[dofs] = v / math.sqrt(vmv)
    return lam, full, res, steps


def _separable_eigen(mesh: HalfDiskMesh, radial, angular, mass, shift: float = 0.0,
                     trace: bool = True) -> Tuple[float, np.ndarray, float, int]:
    """Smallest eigenpair of the pencil K = A (x) B + C (x) D + shift M
    against M = E (x) mass on the free dofs, every factor tridiagonal on all
    nodes of its direction.  trace: E = e e^T, e the arc row, the radial dofs
    run to the arc and ``mass`` is the arc mass; otherwise (Hardy) E = C and
    the arc is fixed.

    The radial modes X (A X = C X diag(mu), X^T C X = I) turn K into the
    blocks T_m = mu_m B + D, factored at once by one dpttrf of their stacked
    tridiagonals.  For a trace pencil M is e e^T (x) mass, and the arc trace
    g of an eigenvector solves g = lam sum_m z_m^2 T_m^-1 mass g, z = X[-1]
    (the discrete Neumann-to-Dirichlet map); for Hardy the smallest block
    T_0 alone holds the minimum, g = lam T_0^-1 G g.  The largest eigenvalue
    1/lam of that map comes from :func:`_lanczos_max`; the eigenvector is
    rebuilt on the mesh, and lam and the residual ||K v - lam M v|| / ||K v||
    are those of the full pencil, in Kronecker form (:func:`_finish`).
    Returns (lam, M-normalized eigenvector on all nodes, residual, Lanczos
    steps), as :func:`min_rayleigh` does."""
    rs = slice(1, None) if trace else slice(1, -1)
    A, C = ((t[0][rs], t[1][rs]) for t in radial)
    B, D, Ma = ((t[0][1:-1], t[1][1:-1]) for t in (*angular, mass))
    mu, X = _radial_modes(A, C)
    z = X[-1]
    if not trace:
        mu, X, z = mu[:1], X[:, :1], np.ones(1)
    k, n = len(mu), len(B[0])
    e = np.zeros((k, n))
    e[:, :-1] = mu[:, None] * B[1] + D[1]
    df, ef, info = lapack.dpttrf((mu[:, None] * B[0] + D[0]).ravel(), e.ravel()[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(f"angular block not positive definite (dpttrf info={info})")

    def blocks(u):
        """z_m T_m^-1 u for every mode m, one dpttrs on the stacked blocks."""
        y, _ = lapack.dpttrs(df, ef, np.tile(u, k))
        return z[:, None] * y.reshape(k, n)

    g, steps = _lanczos_max(lambda mg: z @ blocks(mg), lambda u: _tri_apply(Ma, u), n)
    V = np.einsum("im,mj->ij", X, blocks(_tri_apply(Ma, g)))
    if trace:
        MV = np.zeros_like(V)
        MV[-1] = _tri_apply(Ma, V[-1])
    else:
        MV = _kron_apply(C, Ma, V)
    KV = _kron_apply(A, B, V) + _kron_apply(C, D, V) + shift * MV
    dofs = np.arange(mesh.nnodes).reshape(mesh.nr + 1, mesh.ntheta + 1)[rs, 1:-1]
    return _finish(V, KV, MV, steps, mesh.nnodes, dofs)


def _radius_fastest(mesh: HalfDiskMesh, free: np.ndarray) -> np.ndarray:
    """The node numbers ``free`` ordered radius-fastest: by angular index, then
    radial index.  The bilinear stencil then couples numbers at most one
    angular row of free radial nodes plus one apart."""
    i, j = np.divmod(free, mesh.ntheta + 1)
    return free[np.lexsort((i, j))]


def _renumbered(A: sp.spmatrix, perm: np.ndarray) -> sp.coo_matrix:
    """A on the rows and columns ``perm``, numbered in that order, from A's
    COO triplets through a position map."""
    pos = np.full(A.shape[0], -1)
    pos[perm] = np.arange(len(perm))
    C = A.tocoo()
    i, j = pos[C.row], pos[C.col]
    keep = (i >= 0) & (j >= 0)
    return sp.coo_matrix((C.data[keep], (i[keep], j[keep])), shape=(len(perm),) * 2)


def _band_cholesky(K: sp.coo_matrix) -> np.ndarray:
    """LAPACK dpbtrf factor (lower) of the symmetric positive definite K, in
    band storage of shape (kd + 1, n); the half-bandwidth kd is that of K's
    stored lower triangle.  Raises LinAlgError naming dpbtrf's info when K
    is not positive definite."""
    lower = K.row >= K.col
    d, j, v = K.row[lower] - K.col[lower], K.col[lower], K.data[lower]
    n, kd = K.shape[0], int(d.max())
    # ab[d, j] = K[j + d, j], column-major so that dpbtrf factors in place
    ab = np.bincount(j * (kd + 1) + d, weights=v,
                     minlength=(kd + 1) * n).reshape((kd + 1, n), order="F")
    c, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"stiffness not positive definite (dpbtrf info={info})")
    return c


def min_rayleigh(mesh: HalfDiskMesh, K: sp.spmatrix, M: sp.spmatrix,
                 free: np.ndarray) -> Tuple[float, np.ndarray, float, int]:
    """Smallest generalized eigenvalue of (K, M) on the free dofs of ``mesh``.

    The free dofs are numbered radius-fastest, which makes K a band matrix
    of half-bandwidth nr + 1 (nr when the arc is fixed); it is factored once
    by band Cholesky (:func:`_band_cholesky`) and :func:`_lanczos_max` runs
    on K^-1 M in the M (semi-)inner product, one dpbtrs per step.  The Ritz
    vector is mapped once more through K^-1 M, so it lies in the pencil's
    range even where M is singular (the arc mass).  Returns (lam,
    M-normalized eigenvector on all nodes, residual ||K v - lam M v|| /
    ||K v||, Lanczos steps)."""
    perm = _radius_fastest(mesh, free)
    Kf = _renumbered(K, perm)
    factor = _band_cholesky(Kf)
    Kf, Mf = Kf.tocsr(), _renumbered(M, perm).tocsr()

    def solve(u):
        return lapack.dpbtrs(factor, u, lower=1)[0]

    g, steps = _lanczos_max(solve, lambda u: Mf @ u, len(perm))
    v = solve(Mf @ g)
    return _finish(v, Kf @ v, Mf @ v, steps, mesh.nnodes, perm)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def _conjugated_forms(a: float, eps: float, mesh: HalfDiskMesh) -> sp.csr_matrix:
    """K0 + P + Wb: the flat Dirichlet form, the domain potential and the arc
    potential of the weight rho conjugated away by v = rho^(1/2) u (see
    :func:`degenlab.potentials.potentials`)."""
    def V(y):
        return potentials("rho", a, eps, y)[0]

    def Warc(y):
        return potentials("rho", a, eps, y)[1]

    K0, P = assemble_forms(mesh, _ones, mass_weight=V)
    return K0 + P + assemble_arc_mass(mesh, Warc)


def trace_eigen(b: float, eps: float, grid_h: float) -> EigenResult:
    """Sharp constant of int rho^b |grad u|^2 >= lam int_arc rho^b u^2, u|_plane = 0.

    The minimum tends to 1 - b under refinement (eigenfunction y^(1-b)).
    The route follows b: for b > -1 the direct route assembles the weighted
    quotient literally; otherwise the transformed route conjugates by
    rho^(b/2) and uses the closed-form potentials (valid for every b < 1).
    At eps = 0 both routes separate in (r, theta) and take
    :func:`_separable_eigen`."""
    if b >= 1.0:
        raise ValueError("trace exponent must satisfy b < 1")
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    route = "direct" if b > -1.0 else "transformed"
    mesh = HalfDiskMesh.from_h(grid_h)
    if eps == 0.0:
        lam, vec, res, it = _separable_eigen(mesh, *_trace_factors(mesh, b, route))
    else:
        if route == "direct":
            wfn = functools.partial(rho_weight, WeightFamily(b, eps))
            K = assemble_forms(mesh, wfn)[0]
            M = assemble_arc_mass(mesh, wfn)
        else:
            K = _conjugated_forms(b, eps, mesh)
            M = assemble_arc_mass(mesh, None)
        lam, vec, res, it = min_rayleigh(mesh, K, M, mesh.free_nodes())
    return EigenResult(f"trace[b={b:g}]", b, eps, grid_h, lam, res, route, it, vec)


def hardy_quotient(weight: Optional[WeightFamily], grid_h: float) -> EigenResult:
    """min int w |grad u|^2 / int (w/y^2) u^2 over u vanishing on the plane
    and on the arc, for w = rho of the family ``weight``, or w == 1 when it
    is None; for w == 1 the continuum constant is 1/4 (not attained)."""
    mesh = HalfDiskMesh.from_h(grid_h)
    if weight is None:
        a = eps = 0.0
        lam, vec, res, it = _separable_eigen(mesh, *_hardy_factors(mesh), trace=False)
    else:
        a, eps = weight.a, weight.eps
        if a <= -1.0 and eps == 0.0:
            raise ValueError("hardy direct route requires a > -1 at eps=0")
        jac = a if (eps == 0.0 and a != 0.0) else None
        wfn = functools.partial(rho_weight, weight)

        def mass(y):
            return wfn(y) / (y * y)

        K, M = assemble_forms(mesh, wfn, mass_weight=mass, sigma_jacobi_exponent=jac)
        free = np.setdiff1d(mesh.free_nodes(), mesh.arc_node_ids())
        lam, vec, res, it = min_rayleigh(mesh, K, M, free)
    wid = "1" if weight is None else f"rho[a={a:g},eps={eps:g}]"
    return EigenResult(f"hardy[w={wid}]", a, eps, grid_h, lam, res, "direct", it, vec)


def eigen_stability_sweep(a: float, r_list: Sequence[float], grid_h: float) -> list:
    """Table of (r, lam_r, residual) for the dilated weights rho(a, 1/r),
    a in (-1, 1), r > 0; lam_r -> 1-a as r grows.  The residual is the eigen
    solve's (see :func:`min_rayleigh`)."""
    if not (-1.0 < a < 1.0):
        raise ValueError("eigen stability sweep requires a in (-1, 1)")
    if not all(r > 0.0 for r in r_list):
        raise ValueError(f"eigen stability sweep requires every r > 0, got {list(r_list)}")
    rows = []
    for r in r_list:
        res = trace_eigen(a, 1.0 / r, grid_h)
        rows.append((r, res.lam, res.residual))
    return rows


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
        raise ValueError("arc radius outside the unit half-disk grid")
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
