"""The benchmark's tracer wraps degenlab functions by name: every name it
wraps must exist, and uninstalling must put the originals back."""

import importlib.util
import inspect
import sys
from pathlib import Path

import degenlab.cli  # noqa: F401  (the tracer wraps every degenlab module)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _wrapped():
    """Functions the tracer wraps by name: every method of its ``METHODS``
    and one of each other kind (external name, public function, public
    function with a result hook).  A rename fails here instead of zeroing
    its metrics."""
    weights, potentials, spectral, assembly = (
        sys.modules[f"degenlab.{m}"] for m in ("weights", "potentials", "spectral", "assembly"))
    return (weights.CharacteristicSolution.segment_integral, potentials.quad,
            weights.v_char, spectral.min_rayleigh, assembly.RhoWeight.resistance_y,
            assembly.AssembledOperator.rhs)


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _tracer():
    return _layers().Tracer()


def test_every_per_layer_function_is_wrapped():
    """Each ``module.function`` a per-layer metric names is one the tracer
    wraps: a public function of that module, an ``EXTERNAL`` name, a
    ``METHODS`` method, or (for cli) a subcommand.  A renamed or deleted
    function fails here instead of reading 0 in the benchmark."""
    layers = _layers()
    wrapped = {(m, name) for m, name in layers.EXTERNAL}
    wrapped |= {(m, meth) for m, _, meth in layers.METHODS}
    wrapped |= {("cli", cmd) for cmd in sys.modules["degenlab.cli"].COMMANDS}
    for m in layers.MODULES:
        mod = sys.modules[f"degenlab.{m}"]
        wrapped |= {(m, attr) for attr, fn in vars(mod).items()
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")}
    named = []
    for metric, _ in layers.PER_LAYER:
        m, *rest = metric.split(".")
        if m in layers.MODULES and len(rest) >= 2:      # module.function.measure
            named.append((m, rest[0]))
    assert ("holder", "epsilon_sweep") in named and ("spectral", "assemble_forms") in named
    assert [n for n in named if n not in wrapped] == []


def test_tracer_installs_and_uninstalls():
    originals = _wrapped()
    tracer = _tracer()
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(_wrapped(), originals))
    finally:
        tracer.uninstall()
    assert _wrapped() == originals


def test_tracer_counts_each_quad_call_once():
    """``weights.quad`` is a public degenlab function, so the module scan sees
    it as well as the ``EXTERNAL`` entries: each call must count once, under
    the name of the module it was called through."""
    weights, potentials = (sys.modules[f"degenlab.{m}"] for m in ("weights", "potentials"))
    tracer = _tracer()
    tracer.install()
    try:
        for mod in (weights, potentials):
            mod.quad(lambda s: s * s, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert dict(tracer.counts) == {"weights.quad": 1, "potentials.quad": 1}


def test_tracer_reads_min_rayleigh_steps():
    """The tracer takes ``spectral.min_rayleigh.iterations`` from the fourth
    entry of the returned (lam, vector, residual, steps)."""
    spectral = sys.modules["degenlab.spectral"]
    tracer = _tracer()
    tracer.install()
    try:
        res = spectral.trace_eigen(0.5, 0.1, 1 / 8)
    finally:
        tracer.uninstall()
    assert tracer.values["spectral.min_rayleigh.iterations"] == res.iterations > 0
