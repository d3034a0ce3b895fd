"""Array assembly against the loop assembly it replaced (``seed_assembly``).

Every combination of grid, weight model (mu among them) and parity must
give the same matrix and the same right-hand side (f, F and Dirichlet trace
together) to 1e-13 relative, and a matrix symmetric to the same bound.
Summation order differs between the two, and numpy's vector power may differ
from the scalar one in the last bit, so the comparison is not exact.  The samplers take arrays, as
the array assembly requires, and serve the oracle's scalar calls as well.

The same cases check what the solvers and right-hand sides rely on: the
matrix is positive definite (CG needs it), ``solve_linear`` agrees with a
dense solve, within two CG steps on the n = 1 half rectangle, a constant
feels only its outer trace and, under odd parity, the zero on the plane, and
the matrix is the face form sum_f tau_f (u_hi - u_lo)(v_hi - v_lo) of
``op.faces``, the faces the right-hand sides read.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import degenlab as dl
import seed_assembly as seed

RTOL = 1e-13


def _first(x):
    """The first coordinate of a column position x (a tuple for n = 2)."""
    return x[0] if isinstance(x, tuple) else x


def _norm2(x):
    """|x|^2 of a column position x (a scalar or array for n = 1, a tuple of
    them for n = 2), elementwise over arrays of positions."""
    return sum(np.square(c) for c in x) if isinstance(x, tuple) else np.square(x)


# mu^(-1) = 1 / (1 + 0.1 |x|^2) as the pair the array assembly takes; called on
# (x, y), the pair is the (x, y) sampler the loop oracle reads point by point
_mu_inverse = dl.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 0.1 * _norm2(x)))


def _weights(name):
    """(array model, loop model) with identical parameters."""
    if name == "const":
        fam = dl.WeightFamily(0.0)
        return dl.RhoWeight(fam), seed.SeedRhoWeight(fam)
    if name == "rho-eps0":
        fam = dl.WeightFamily(0.5, 0.0)
        return dl.RhoWeight(fam), seed.SeedRhoWeight(fam)
    if name == "rho-eps0.1":
        fam = dl.WeightFamily(-0.5, 0.1)
        return dl.RhoWeight(fam), seed.SeedRhoWeight(fam)
    if name == "rho-quadratic-mu":
        fam = dl.WeightFamily(0.5, 0.0)
        return dl.RhoWeight(fam, _mu_inverse), seed.SeedRhoWeight(fam, _mu_inverse)
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), _mu_inverse)
    return dl.AuxiliaryWeight(sol), seed.SeedAuxiliaryWeight(sol)


def _f(x, y):
    return np.cos(_first(x)) * (1.0 + y)


def _F(x, y):
    return (0.3 * y,) * (2 if isinstance(x, tuple) else 1) + (0.2 + y * y,)


def _trace(x, y):
    return 1.0 + _first(x) + y * y


# each shape also at a second spacing: h = 1/4, the coarsest the grid builder
# admits (the disk's coarsest staircase), for n = 1, and 1/h = 6, not a power
# of two, for n = 2
GRIDS = {"n1-rect": (1, "half_rectangle", 1 / 8), "n1-disk": (1, "half_disk", 1 / 8),
         "n2-rect": (2, "half_rectangle", 1 / 4),
         "n1-rect-h4": (1, "half_rectangle", 1 / 4), "n1-disk-h4": (1, "half_disk", 1 / 4),
         "n2-rect-h6": (2, "half_rectangle", 1 / 6)}
WEIGHTS = ("const", "rho-eps0", "rho-eps0.1", "rho-quadratic-mu", "aux")
CASES = list(itertools.product(GRIDS, WEIGHTS, ("odd", "even")))
IDS = ["-".join(c) for c in CASES]


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=IDS)
def test_array_assembly_matches_loop_oracle(grid, weight, parity):
    n, shape, h = GRIDS[grid]
    g = dl.build_half_grid(n, shape, h)
    new_w, old_w = _weights(weight)
    new = dl.assemble(g, new_w, parity=parity)
    old = seed.assemble(g, old_w, parity=parity)
    scale = abs(old.matrix).max()
    assert abs(new.matrix - old.matrix).max() <= RTOL * scale
    assert abs(new.matrix - new.matrix.T).max() <= RTOL * scale
    r_new = new.rhs(f=_f, F=_F, trace=_trace)
    r_old = old.rhs(f=_f, F=_F, trace=_trace)
    assert np.max(np.abs(r_new - r_old)) <= RTOL * np.max(np.abs(r_old))


def _assembled(grid, weight, parity):
    n, shape, h = GRIDS[grid]
    g = dl.build_half_grid(n, shape, h)
    return dl.assemble(g, _weights(weight)[0], parity=parity)


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=IDS)
def test_assembled_matrix_is_positive_definite(grid, weight, parity):
    A = _assembled(grid, weight, parity).matrix.toarray()
    np.linalg.cholesky(A)   # raises LinAlgError unless A is positive definite
    assert np.linalg.eigvalsh(A).min() > 1e-3 * abs(A).max()


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=IDS)
def test_solve_linear_matches_a_dense_solve(grid, weight, parity):
    # every operator here is separable (mu depends on x alone): CG preconditioned
    # by the separable fit stops within two steps on the n = 1 half rectangle
    op = _assembled(grid, weight, parity)
    rhs = op.rhs(f=_f, F=_F, trace=_trace)
    rep = dl.solve_linear(op, rhs)
    assert rep.method == "cg-preconditioned"
    assert rep.info == 0 and rep.converged
    assert rep.iterations <= 2 or grid not in ("n1-rect", "n1-rect-h4")
    u = np.linalg.solve(op.matrix.toarray(), rhs)
    assert np.max(np.abs(rep.field.values - u)) <= 1e-8 * np.max(np.abs(u))


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=IDS)
def test_constants_feel_only_the_trace_and_the_plane(grid, weight, parity):
    op = _assembled(grid, weight, parity)
    g, fc = op.grid, op.faces
    r = op.matrix @ np.ones(g.ncells) - op.rhs(trace=lambda x, y: 1.0)
    # the plane faces carry the odd zero (tau is 0 there under even parity)
    plane = (fc.axis == g.n) & (fc.lo < 0) & (fc.mid[:, g.n] == 0.0)
    expect = np.zeros(g.ncells)
    np.add.at(expect, fc.hi[plane], fc.tau[plane])
    assert parity == "odd" or not expect.any()
    assert np.max(np.abs(r - expect)) <= RTOL * abs(op.matrix).max()


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=IDS)
def test_matrix_is_the_face_form(grid, weight, parity):
    op = _assembled(grid, weight, parity)
    fc = op.faces
    # signed incidence: +1 at the cell above/right of a face, -1 below/left
    rows, cols, vals = [], [], []
    for side, sign in ((fc.hi, 1.0), (fc.lo, -1.0)):
        on = np.flatnonzero(side >= 0)
        rows.append(on)
        cols.append(side[on])
        vals.append(np.full(len(on), sign))
    B = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(fc.lo), op.grid.ncells))
    form = B.T @ sp.diags(fc.tau) @ B
    assert abs(form - op.matrix).max() <= RTOL * abs(op.matrix).max()
