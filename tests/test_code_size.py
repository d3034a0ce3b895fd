"""scripts/code_size.py on a stand-in package, and one run on src/degenlab."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_size.py"
_spec = importlib.util.spec_from_file_location("code_size", SCRIPT)
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

MODULE = '''from dataclasses import dataclass, field


@dataclass
class Box:
    a: int
    b: int = 1
    c: list = field(default_factory=list)


def used(x, y=2, *, z=None, w):
    """Two defaults."""
    return x + y


def unused(x=0):
    """Its body and its nested function: three lines."""
    def inner():
        return 1
    return inner()
'''


def test_counts_of_a_stand_in_package(tmp_path):
    (tmp_path / "mod.py").write_text(MODULE)
    spec = importlib.util.spec_from_file_location("stand_in_mod", tmp_path / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert code_size.line_count(tmp_path) == MODULE.count("\n")
    assert code_size.option_count(tmp_path) == 5     # Box.b, Box.c, y, z and x
    assert code_size.unreached_lines(lambda: mod.used(1, w=0), tmp_path) == 3
    assert code_size.unreached_lines(lambda: mod.unused(), tmp_path) == 1     # used's body


def test_prints_the_three_figures_of_src():
    out = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=300, check=True).stdout
    assert re.fullmatch(r"lines: \d+\noptions: \d+\nunreached: \d+\n", out), out
