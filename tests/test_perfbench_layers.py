"""The benchmark's tracer wraps degenlab functions by name: every name it
wraps must exist, and uninstalling must put the originals back."""

import importlib.util
import sys
from pathlib import Path

import degenlab.cli  # noqa: F401  (the tracer wraps every degenlab module)

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _wrapped():
    weights, potentials = (sys.modules[f"degenlab.{m}"] for m in ("weights", "potentials"))
    return (weights.CharacteristicSolution.segment_integral, potentials.quad,
            weights.v_char)


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    originals = _wrapped()
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(w is not o for w, o in zip(_wrapped(), originals))
    finally:
        tracer.uninstall()
    assert _wrapped() == originals
