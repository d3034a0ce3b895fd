"""The four benchmark workloads and the seeded generation of their arguments.

Each workload is one ``degenlab`` subcommand.  A run starts several worker
processes (streams); invocation ``i`` of stream ``k`` in a run with seed ``s``
draws its parameters from the workload's ranges with a generator keyed by
``(workload, s, k, i)``, so a seed always yields the same invocations.  The
first invocation of stream 0 with ``DEFAULT_SEED`` uses the exponents of
``scripts/full_pipeline.py`` instead of a draw.

Grids are one step coarser than in ``scripts/full_pipeline.py`` (sweep and
eigen at h = 1/32, solve up to h = 1/96), so that an invocation takes about
one second and a run of the benchmark holds enough invocations for a steady
median on a shared two-core machine.  The work per invocation keeps the
same structure: every layer a full-size invocation reaches is reached.

The ranges are discrete so that every drawable parameter set has reference
outputs recorded in ``reference.json``; every value in them passes the CLI's
own checks at the seed commit (``make_reference.py`` confirms this).  They
are kept narrow because the seed is meant to vary the inputs, not the amount
of work: wall time changes by a few percent across each range.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

DEFAULT_SEED = 0

SWEEP_A = (0.45, 0.475, 0.5, 0.525, 0.55)
SWEEP_C = (0.075, 0.1, 0.125)
SOLVE_A = (0.45, 0.475, 0.5, 0.525, 0.55)
EIGEN_A = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5)
EIGEN_A_COUNT = 3
PHI_A = (0.95, 0.9, 0.75, 0.5, 0.25, 0.0, -0.5, -1.0, -2.0, -3.0, -5.0, -10.0, -20.0)
PHI_A_COUNT = 6

SWEEP_EPS = "1 0.3 0.1 0.03 0.01 0"
SWEEP_H = "1/32"
SOLVE_H = "1/24 1/48 1/96"
EIGEN_H = "1/32"


def _g(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    expected_exit: int
    default: dict
    draw: Callable[[random.Random], dict]
    argv: Callable[[dict], list]
    why: str

    def params(self, seed: int, stream: int, index: int) -> dict:
        if (seed, stream, index) == (DEFAULT_SEED, 0, 0):
            return dict(self.default)
        return self.draw(random.Random(f"{self.name}/{seed}/{stream}/{index}"))


def _sweep_argv(p: dict) -> list:
    return ["sweep", f"a={_g(p['a'])}", f"mu=quadratic:{_g(p['c'])}", f"h={SWEEP_H}",
            f"eps_list={SWEEP_EPS}", "alpha=0.4"]


def _solve_argv(p: dict) -> list:
    return ["solve", f"a={_g(p['a'])}", f"h_list={SOLVE_H}"]


def _eigen_argv(p: dict) -> list:
    return ["eigen", "a=" + " ".join(_g(a) for a in p["a"]), f"h={EIGEN_H}",
            "aux_a=0.5 -1", "r_list=1 4 16 64"]


def _certify_argv(p: dict) -> list:
    return ["certify", "phi_a=" + " ".join(_g(a) for a in p["phi_a"])]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="sweep-quadratic", expected_exit=0,
        default={"a": 0.5, "c": 0.1},
        draw=lambda r: {"a": r.choice(SWEEP_A), "c": r.choice(SWEEP_C)},
        argv=_sweep_argv,
        why="a in 0.45..0.55, c in 0.075..0.125, h=1/32; ~38k scalar quad calls in the "
            "v columns; the only workload where weights quadrature, ratio and holder work"),
    Workload(
        name="solve-fine", expected_exit=0,
        default={"a": 0.5},
        draw=lambda r: {"a": r.choice(SOLVE_A)},
        argv=_solve_argv,
        why="a in 0.45..0.55, h to 1/96; eps=0, mu=1: closed-form resistances, no quad "
            "(bypasses the sweep's quadrature); 18k-cell assembly, Jacobi-CG and LU"),
    Workload(
        name="eigen", expected_exit=0,
        default={"a": (-0.5, 0.0, 0.5)},
        draw=lambda r: {"a": tuple(sorted(r.sample(EIGEN_A, EIGEN_A_COUNT)))},
        argv=_eigen_argv,
        why="3 of a in -0.75..0.5, h=1/32; nodal forms, sparse LU and inverse "
            "iteration; no cell-centred assembly, weights quadrature or certificates"),
    Workload(
        name="certify", expected_exit=1,
        default={"phi_a": (0.9, 0.5, 0.0, -1.0, -3.0, -10.0)},
        draw=lambda r: {"phi_a": tuple(sorted(r.sample(PHI_A, PHI_A_COUNT), reverse=True))},
        argv=_certify_argv,
        why="6 of phi_a in -20..0.95, exits 1 by design; ~40k scalar gamma_small/"
            "w_deep/hyp2f1 calls and v_limit quad; the only certify/potentials workload"),
)}


def reference_key(workload: str, params: dict) -> str:
    """Key of a parameter set in ``reference.json`` (certify has one entry)."""
    if workload == "sweep-quadratic":
        return f"a={_g(params['a'])},c={_g(params['c'])}"
    if workload == "solve-fine":
        return f"a={_g(params['a'])}"
    return "all"


def all_params(workload: str) -> Tuple[dict, ...]:
    """Every parameter set a seed can draw, for building the reference table."""
    if workload == "sweep-quadratic":
        return tuple({"a": a, "c": c} for a in SWEEP_A for c in SWEEP_C)
    if workload == "solve-fine":
        return tuple({"a": a} for a in SOLVE_A)
    if workload == "eigen":
        return ({"a": EIGEN_A},)
    return ({"phi_a": PHI_A},)
