"""The grid-only work of assembly and of the seminorms, done once.

``assemble`` takes the face topology, the slot table and the CSR pattern
from the grid's :class:`~degenlab.assembly.Stencil` and computes only
values.  The stencil derives every array by index arithmetic on the
lattice; the operator must equal, bit for bit, the one that the array
assembly built before it had a stencil: every face array from concatenated
slices of the padded lattice and the matrix from COO triplets
(``_coo_reference`` below, kept as the reference), on grids up to the
finest of the benchmark's solve, h = 1/96, and on the half disk, whose
stencil is its lattice's kept to its cells.  The stencil lives on its grid,
so one grid builds one, and a sweep's seminorms share their distance
tables.
"""

import functools
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

import degenlab as dl
from degenlab import assembly, holder, ratio
from degenlab.assembly import Faces, _x_of, _xy
from degenlab.holder import (_distance_tables, _eps_region, _quotient, c1alpha_seminorm,
                             holder_seminorm)


def _reference_columns(g):
    """The positions x of the lattice's columns, as the assembly took them
    before it had a stencil."""
    xs = -1.0 + (np.arange(g.nx) + 0.5) * g.h
    return _x_of([xs[i] for i in np.unravel_index(np.arange(g.nx ** g.n), (g.nx,) * g.n)])


def _reference_values(g, fn):
    ys = (np.arange(g.ny) + 0.5) * g.h
    vals = np.broadcast_to(fn(_reference_columns(g), ys), (g.nx ** g.n, g.ny)).ravel()
    return vals[g.index.ravel() >= 0]


def _axis_faces(g, axis):
    """Dofs on both sides (-1 outside) and midpoints (x..., y) of the faces
    normal to a lattice axis (axis n is y), as flat arrays ordered by the
    other lattice coordinates first and the face position last: the
    padded lattice with the axis moved last."""
    m = g.index.shape[axis]
    pad = [(0, 0)] * g.index.ndim
    pad[axis] = (1, 1)
    cells = np.moveaxis(np.pad(g.index, pad, constant_values=-1), axis, -1)
    lo, hi = cells[..., :-1].ravel(), cells[..., 1:].ravel()
    h = g.h
    coords = [-1.0 + (np.arange(g.nx) + 0.5) * h] * g.n + [(np.arange(g.ny) + 0.5) * h]
    coords[axis] = (-1.0 if axis < g.n else 0.0) + np.arange(m + 1) * h
    mid = np.stack([np.moveaxis(c, axis, -1).ravel()
                    for c in np.meshgrid(*coords, indexing="ij")], axis=-1)
    return lo, hi, mid


def _face_weight(wc, lo, hi):
    out = np.where(lo >= 0, wc[lo], wc[hi])
    inner = (lo >= 0) & (hi >= 0)
    wl, wh = wc[lo[inner]], wc[hi[inner]]
    out[inner] = 2.0 * wl * wh / (wl + wh)
    return out


def _coo_reference(g, weight, parity):
    """(matrix, faces) of the array assembly without a stencil: faces by
    slicing the padded lattice, the faces with a cell of the grid kept, the
    diagonal by axis, lower face before upper, and the matrix from COO
    triplets.  A y-segment ends at a cell centre, or at the face where
    there is none."""
    n, h = g.n, g.h
    area = h ** n
    ys = (np.arange(g.ny) + 0.5) * h
    lo, hi, mid = _axis_faces(g, n)
    lo, hi = lo.reshape(-1, g.ny + 1), hi.reshape(-1, g.ny + 1)
    mid = mid.reshape(lo.shape + (n + 1,))
    inner = (lo >= 0) & (hi >= 0)
    plane = np.zeros(lo.shape, dtype=bool)
    plane[:, 0] = hi[:, 0] >= 0
    edge = ((lo >= 0) != (hi >= 0)) & ~plane
    need = inner | edge | plane & (parity == "odd")
    y0 = np.where(lo >= 0, np.r_[0.0, ys], mid[..., n])
    y1 = np.where(hi >= 0, np.r_[ys, g.ny * h], mid[..., n])
    wcell = _reference_values(g, weight.values)
    wxcell = _reference_values(g, weight.x_conductivities)
    R = np.broadcast_to(weight.resistance_y(_reference_columns(g), ys, y0, y1), lo.shape)
    wf = _face_weight(wcell, lo, hi)
    use = need & (~plane | (np.isfinite(R) & (R > 0)))
    tau = np.zeros(lo.shape)
    tau[use] = area / R[use]
    keep = (lo >= 0) | (hi >= 0)
    parts = [(np.full(np.count_nonzero(keep), n), lo[keep], hi[keep], wf[keep],
              mid[keep], tau[keep], edge[keep])]
    for axis in range(n):
        lo, hi, mid = _axis_faces(g, axis)
        keep = (lo >= 0) | (hi >= 0)
        lo, hi, mid = lo[keep], hi[keep], mid[keep]
        inner = (lo >= 0) & (hi >= 0)
        wf = _face_weight(wxcell, lo, hi)
        tau = area * wf * weight.sol.mu_at(*_xy(mid, n)) / np.where(inner, h, h / 2.0)
        parts.append((np.full(len(lo), axis), lo, hi, wf, mid, tau, ~inner))
    faces = Faces(*(np.concatenate(a) for a in zip(*parts)))
    diag = np.zeros(g.ncells)
    for axis in (n, *range(n)):
        on = faces.axis == axis
        for side in (faces.hi[on], faces.lo[on]):
            diag[side[side >= 0]] += faces.tau[on][side >= 0]
    inner = (faces.lo >= 0) & (faces.hi >= 0)
    lo, hi, tau = faces.lo[inner], faces.hi[inner], faces.tau[inner]
    dofs = np.arange(g.ncells)
    r, c, v = (np.concatenate(a) for a in zip((dofs, dofs, diag), (lo, hi, -tau), (hi, lo, -tau)))
    return sp.coo_matrix((v, (r, c)), shape=(g.ncells, g.ncells)).tocsr(), faces


def _norm2(x):
    return sum(np.square(c) for c in x) if isinstance(x, tuple) else np.square(x)


def _weight(name):
    m_inv = lambda x: 1.0 / (1.0 + 0.1 * _norm2(x))     # noqa: E731
    n_inv = lambda y: 1.0 / (1.0 + 0.3 * y * y)          # noqa: E731
    if name == "eps0":
        return dl.RhoWeight(dl.WeightFamily(0.5, 0.0))
    if name == "eps0.1":
        return dl.RhoWeight(dl.WeightFamily(-0.5, 0.1))
    if name == "product-mu":
        return dl.RhoWeight(dl.WeightFamily(0.5, 0.1), dl.MuInverse(m_inv, n_inv))
    return dl.AuxiliaryWeight(dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1),
                                                        dl.MuInverse(m_inv)))


GRIDS = {"n1-rect": (1, "half_rectangle", 1 / 8), "n1-disk": (1, "half_disk", 1 / 8),
         "n1-rect-h96": (1, "half_rectangle", 1 / 96), "n2-rect": (2, "half_rectangle", 1 / 4),
         "n2-rect-h6": (2, "half_rectangle", 1 / 6)}
CASES = list(itertools.product(GRIDS, ("eps0", "eps0.1", "product-mu", "aux"), ("odd", "even")))


@pytest.mark.parametrize("grid,weight,parity", CASES, ids=["-".join(c) for c in CASES])
def test_stencil_operator_is_the_coo_operator_bit_for_bit(grid, weight, parity):
    g = dl.build_half_grid(*GRIDS[grid])
    op = dl.assemble(g, _weight(weight), parity=parity)
    matrix, faces = _coo_reference(dl.build_half_grid(*GRIDS[grid]), _weight(weight), parity)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(op.matrix, name), getattr(matrix, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in Faces.__dataclass_fields__:
        got, want = getattr(op.faces, name), getattr(faces, name)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("a,eps", [(0.5, 0.0), (-1.5, 0.0), (0.0, 0.0), (-2.0, 0.1),
                                   (0.5, 0.1), (0.9, 1e-3)])
def test_mu_one_resistances_read_chi_on_the_ladder_bit_for_bit(grid, a, eps):
    """mu == 1 reads chi on the half-spacing ladder at index y / (h/2): the
    values chi(y1) - chi(y0) at the segment ends of a column's y-faces, from
    the plane to the top face of its cells (the staircase on the half
    disk), exactly."""
    g = dl.build_half_grid(*GRIDS[grid])
    fam = dl.WeightFamily(a, eps)
    st = g.stencil
    top = np.count_nonzero(g.index >= 0, axis=-1).ravel()     # each column's cells
    y1 = np.broadcast_to(st.y1, (len(top), g.ny + 1))
    assert np.all(st.y0[..., 0] == 0.0) and np.array_equal(y1[np.arange(len(top)), top],
                                                           top * g.h)
    assert (len(set(top)) > 1) == (g.shape == "half_disk")
    got = dl.RhoWeight(fam).resistance_y(st.x, st.ys, st.y0, st.y1)
    assert np.array_equal(got, dl.chi(fam, st.y1) - dl.chi(fam, st.y0))


def _counting_stencils(monkeypatch):
    built = []

    class Counting(assembly.Stencil):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(assembly, "Stencil", Counting)
    return built


def test_a_sweep_and_aux_residual_build_one_stencil_per_grid(monkeypatch):
    built = _counting_stencils(monkeypatch)
    mu_inverse = dl.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 0.1 * x * x))
    fam = dl.ProblemFamily(a=0.5, mu_inverse=mu_inverse, name="one-stencil")
    sols = dl.solve_family(fam, [1.0, 0.3, 0.1, 0.03, 0.01, 0.0], grid_h=1 / 16)
    assert len(built) == 1 and all(s.u.grid is built[0] for s in sols)

    ops = []

    def recording(*args, **kwargs):
        ops.append(dl.assemble(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(ratio, "assemble", recording)
    g = dl.build_half_grid(1, "half_rectangle", 1 / 16)
    sol = dl.CharacteristicSolution(dl.WeightFamily(0.5, 0.1), mu_inverse)
    ratio.aux_residual(ratio.OddProblem(sol, trace=lambda x, y: dl.v_char(sol, x, y)), g)
    assert [op.parity for op in ops] == ["odd", "even"] and built[1:] == [g]
    odd, even = ops
    assert all(getattr(odd.faces, f) is getattr(even.faces, f) is getattr(g.stencil, f)
               for f in ("axis", "lo", "hi", "mid", "dirichlet"))
    assert np.shares_memory(odd.matrix.indices, even.matrix.indices)


def test_grids_never_share_a_stencil(monkeypatch):
    """Each grid builds its own stencil, also when a dropped grid's id is
    taken again by the next one."""
    built = _counting_stencils(monkeypatch)
    w = dl.RhoWeight(dl.WeightFamily(0.5))
    for h in (1 / 8, 1 / 8, 1 / 16, 1 / 8, 1 / 8):
        op = dl.assemble(dl.build_half_grid(1, "half_rectangle", h), w)
        assert op.matrix.shape == (op.grid.ncells,) * 2 and op.faces.lo is op.grid.stencil.lo
        del op
    assert len(built) == 5
    g1, g2 = (dl.build_half_grid(1, "half_rectangle", 1 / 8) for _ in range(2))
    assert g1.stencil is g1.stencil and g1.stencil is not g2.stencil


def test_stencil_arrays_are_read_only():
    for shape in ("half_rectangle", "half_disk"):
        op = dl.assemble(dl.build_half_grid(1, shape, 1 / 8), _weight("eps0"))
        for arr in (op.faces.lo, op.faces.mid, op.matrix.indices, op.matrix.indptr):
            with pytest.raises(ValueError):
                arr[0] = 0


@pytest.mark.parametrize("mode,restricted", [("ratio_c0", "none"), ("ratio_c0", "sqrt_eps"),
                                             ("ratio_c1", "sqrt_eps"), ("odd_direct_c0", "none")])
def test_shared_tables_give_the_per_call_seminorms_exactly(monkeypatch, mode, restricted):
    """measure_sweep builds the distance tables once per box shape, and its
    seminorms equal those of calls that build their own."""
    keys = []

    def counting(*key):
        keys.append(key)
        return _distance_tables(*key)

    monkeypatch.setattr(holder, "_distance_tables", counting)
    fam = dl.ProblemFamily(a=0.5, f=lambda x, y: np.cos(np.pi * x) * (1.0 + y),
                           trace_factor=lambda x, y: np.cos(np.pi * x / 2.0),
                           mu_inverse=dl.MuInverse(m_inv=lambda x: 1.0 / (1.0 + 0.1 * x * x)),
                           name="tables")
    sols = dl.solve_family(fam, [1.0, 0.03, 0.01, 0.001, 0.0], grid_h=1 / 16)
    rep = dl.measure_sweep(fam, sols, 0.4, mode=mode, restricted=restricted)
    want = []
    for s in sols:
        reg = _eps_region(restricted, s.eps, s.u.grid.h)
        if reg is None:
            continue
        fld = s.u if mode == "odd_direct_c0" else _quotient(s.u, s.v)
        want.append(c1alpha_seminorm(fld, 0.4, reg)[1] if mode == "ratio_c1"
                    else holder_seminorm(fld, 0.4, reg))
    assert [semi for _, semi, _ in rep.per_eps] == want
    assert len(keys) == len(set(keys)) and (restricted != "none" or len(keys) == 1)
    assert len(want) < len(sols) if restricted == "sqrt_eps" else len(want) == len(sols)


def test_one_cache_of_tables_serves_many_boxes_exactly():
    tables = functools.cache(_distance_tables)
    for h, alpha, region in [(1 / 16, 0.4, dl.Region()), (1 / 16, 0.4, dl.Region()),
                             (1 / 16, 0.7, dl.Region()), (1 / 8, 0.4, dl.Region()),
                             (1 / 16, 0.4, dl.Region(y_min=0.25))]:
        g = dl.build_half_grid(1, "half_rectangle", h)
        fld = dl.DiscreteField(g, np.sin(3 * g.centers[:, 0]) * np.sqrt(g.centers[:, 1]))
        assert holder_seminorm(fld, alpha, region, tables) == holder_seminorm(fld, alpha, region)
        assert c1alpha_seminorm(fld, alpha, region, tables) == c1alpha_seminorm(fld, alpha,
                                                                                region)
    # the value box and the gradient box (no bottom row without a parity) of
    # three (h, alpha), and one box for both on the raised region
    assert tables.cache_info().currsize == 7
