#!/usr/bin/env python3
"""Print the three code-size figures that ROADMAP tracks for src/degenlab.

Usage: python scripts/code_size.py

* lines: ``wc -l`` of the modules of src/degenlab;
* options: defaulted parameters (positional and keyword-only) of every
  function and method, plus dataclass fields with a default, counted on the
  AST;
* unreached: function-body lines that one in-process run of
  ``scripts/full_pipeline.py`` never calls.  Calls are recorded with
  ``sys.setprofile``; a body runs from its first statement after the
  docstring to its last line, and a function nested in an unreached one is
  counted once (the line sets are united).
"""

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "degenlab"


def modules(src: Path) -> list:
    return sorted(src.glob("*.py"))


def line_count(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in modules(src))


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in cls.decorator_list)


def option_count(src: Path) -> int:
    count = 0
    for p in modules(src):
        tree = ast.parse(p.read_text())
        for fn in _functions(tree):
            count += len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in cls.body)
    return count


def _body_lines(fn) -> set:
    body = fn.body
    if (len(body) > 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
        body = body[1:]
    return set(range(body[0].lineno, fn.end_lineno + 1))


def unreached_lines(run, src: Path) -> int:
    """Body lines of the functions under src that ``run()`` never calls."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    called = {(os.path.realpath(f), line) for f, line in called}
    total = 0
    for p in modules(src):
        name = os.path.realpath(p)
        lines: set = set()
        for fn in _functions(ast.parse(p.read_text())):
            first = fn.decorator_list[0].lineno if fn.decorator_list else fn.lineno
            if (name, first) not in called and (name, fn.lineno) not in called:
                lines |= _body_lines(fn)
        total += len(lines)
    return total


def run_full_pipeline() -> None:
    """scripts/full_pipeline.py on src, into a temporary directory, with its
    output discarded."""
    sys.path.insert(0, str(SRC.parent))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.argv = ["full_pipeline.py", tmp]
        try:
            runpy.run_path(str(ROOT / "scripts" / "full_pipeline.py"), run_name="__main__")
        except SystemExit:
            pass


def main() -> int:
    print(f"lines: {line_count(SRC)}")
    print(f"options: {option_count(SRC)}")
    print(f"unreached: {unreached_lines(run_full_pipeline, SRC)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
