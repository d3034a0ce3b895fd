"""The sampler contract: every user callback takes coordinate arrays.

Each role is run on a small grid twice: with a sampler written with numpy,
which must be called once per grid (or once per right-hand-side term, eps
step or interpolation), and with the same sampler written with ``math``,
which cannot take arrays and must raise ValueError naming itself and its
role.
"""

import math

import numpy as np
import pytest

import degenlab as dl


def _grid(shape="half_rectangle"):
    return dl.build_half_grid(1, shape, 1 / 8)


def _op():
    return dl.assemble(_grid(), dl.RhoWeight(dl.WeightFamily(0.5, 0.0)), parity="odd")


def _convergence(region):
    def factory(h):
        g = dl.build_half_grid(1, "half_rectangle", h)
        op = dl.assemble(g, dl.RhoWeight(dl.WeightFamily(0.0)), parity="odd")
        rhs, exact = dl.manufactured_problem(lambda x, y: y, op)
        return op, rhs, exact

    dl.convergence_study(factory, [1 / 4, 1 / 8, 1 / 16], region=region)


def _sweep(trace_factor):
    fam = dl.ProblemFamily(a=0.5, trace_factor=trace_factor, name="contract")
    dl.epsilon_sweep(fam, [1.0, 0.0], 0.4, "ratio_c0", 1 / 8)


def _odd_field(shape="half_rectangle"):
    g = _grid(shape)
    return dl.DiscreteField(g, g.centers[:, 1] * (1.0 + g.centers[:, 0]), "odd")


def _interpolate(trace):
    pts = np.array([[0.0, 0.5], [-0.99, 0.5], [0.3, 0.99], [1.2, 0.4]])  # three need it
    _odd_field().interpolate(pts, trace=trace)


# role: (how the role is reached, sampler calls, numpy sampler, math sampler)
ROLES = {
    "f": (lambda s: _op().rhs(f=s), 1,
          lambda x, y: np.cos(x) * y, lambda x, y: math.cos(x) * y),
    "F": (lambda s: _op().rhs(F=s), 1,
          lambda x, y: (np.cos(x) * y, 0.5), lambda x, y: (math.cos(x) * y, 0.5)),
    "trace": (lambda s: _op().rhs(trace=s), 1,
              lambda x, y: np.cos(x) * y, lambda x, y: math.cos(x) * y),
    # the parity probes and the cell centres
    "u_exact": (lambda s: dl.manufactured_problem(s, _op()), 2,
                lambda x, y: np.cos(x) * y, lambda x, y: math.cos(x) * y),
    # one call per grid of the study
    "region": (_convergence, 3,
               lambda x, y: np.floor(4 * y) >= 1, lambda x, y: math.floor(4 * y) >= 1),
    # the y-resistances, then mu = 1 / mu_inverse on the x-faces
    "mu_inverse": (lambda s: dl.assemble(_grid(), dl.RhoWeight(dl.WeightFamily(0.5, 0.1), s)),
                   2, lambda x, y: 1.0 / (1.0 + 0.1 * x * x),
                   lambda x, y: 1.0 / (1.0 + 0.1 * math.sin(x))),
    # one call per eps step
    "trace_factor": (_sweep, 2,
                     lambda x, y: np.cos(np.pi * x / 2), lambda x, y: math.cos(math.pi * x / 2)),
    "interpolate-trace": (_interpolate, 1,
                          lambda x, y: np.cos(x) * y, lambda x, y: math.cos(x) * y),
    "growth_monitor-trace": (
        lambda s: dl.growth_monitor(_odd_field("half_disk"), 0.5, [1.0], trace=s), 1,
        lambda x, y: np.cos(x) * y, lambda x, y: math.cos(x) * y),
}


def _named(fn, name):
    """fn under its own name, so the error message can be checked for it."""
    def sampler(x, y):
        return fn(x, y)

    sampler.__qualname__ = name
    return sampler


@pytest.mark.parametrize("role", sorted(ROLES))
def test_each_sampler_role_takes_arrays_once(role):
    run, count, array_fn, math_fn = ROLES[role]
    calls = []

    def counting(x, y):
        calls.append(np.shape(y))
        return array_fn(x, y)

    run(counting)
    assert len(calls) == count
    assert all(np.prod(shape) > 1 for shape in calls)        # arrays, not points
    kind = role.split("-")[-1]
    with pytest.raises(ValueError, match=f"{kind} sampler '{role}_math'"):
        run(_named(math_fn, f"{role}_math"))
