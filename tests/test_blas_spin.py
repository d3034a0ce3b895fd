"""scripts/blas_spin.py on shapes small enough for one OpenBLAS thread."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "blas_spin.py"
_spec = importlib.util.spec_from_file_location("blas_spin", SCRIPT)
blas_spin = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(blas_spin)


def test_prints_one_row_per_shape(capsys, monkeypatch):
    monkeypatch.setattr(blas_spin, "REPEATS", 1)
    monkeypatch.setattr(blas_spin, "SLEEP", 0)
    assert blas_spin.main(["4", "16", "16", "2", "3", "5"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["M", "K", "N", "M*K*N", "matmul_ms", "sleep_cpu_ms"]
    assert [r.split()[:4] for r in rows[1:]] == [["4", "16", "16", "1024"],
                                                 ["2", "3", "5", "30"]]


def test_dimensions_come_in_threes():
    with pytest.raises(SystemExit) as e:
        blas_spin.main(["4", "16"])
    assert e.value.code == 2
