"""scripts/diff_pipeline.py on two small stand-in checkouts."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_pipeline.py"

PIPELINE = '''import sys
from pathlib import Path

out = Path(sys.argv[1])
(out / "sub").mkdir(parents=True)
for name, text in {FILES!r}.items():
    (out / name).write_text(text)
sys.exit({CODE})
'''


def _tree(root: Path, files: dict, code: int = 1) -> Path:
    (root / "scripts").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "scripts" / "full_pipeline.py").write_text(
        PIPELINE.replace("{FILES!r}", repr(files)).replace("{CODE}", str(code)))
    return root


def _run(parent: Path, change: Path):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


BASE = {"a.csv": "h,err\n0.5,1.25e-3\n", "same.txt": "eps=0.1 seminorm=2.5 PASS\n",
        "sub/c.dat": "1 2 3\n"}


@pytest.mark.parametrize("change,code,listed", [
    ({"sub/c.dat": "1 2 3.0000000000001\n"}, 0, {"sub/c.dat": "3.33e-14"}),
    ({"a.csv": "h,err\n0.5,1.26e-3\n"}, 1, {"a.csv": "0.00794"}),
    ({"same.txt": "eps=0.1 seminorm=2.5 FAIL\n"}, 1, {"same.txt": "inf"}),
    ({"extra.csv": "1\n"}, 1, {"extra.csv": "inf"}),
])
def test_lists_identical_and_differing_files(tmp_path, change, code, listed):
    parent = _tree(tmp_path / "parent", BASE)
    other = _tree(tmp_path / "change", {**BASE, **change})
    rc, out = _run(parent, other)
    assert rc == code, out
    identical = out.split("identical: ")[1].split("differ: ")[0].split()[2:]
    differ = out.split("differ: ")[1].splitlines()[1:]
    assert sorted(identical) == sorted(set(BASE) - set(listed))
    assert sorted(line.split()[:2] for line in differ) == sorted([f, d] for f, d in listed.items())


def test_identical_trees_and_exit_codes(tmp_path):
    parent = _tree(tmp_path / "parent", BASE)
    rc, out = _run(parent, _tree(tmp_path / "same", BASE))
    assert rc == 0 and "identical: 3 files" in out and "differ: 0 files" in out
    rc, out = _run(parent, _tree(tmp_path / "crash", BASE, code=3))
    assert rc == 1 and "parent 1, change 3" in out


def test_points_at_the_largest_deviation(tmp_path):
    """Each differing file names the line and the column of its largest
    deviation: the CSV header field, or the key of a key=value pair.  A 0
    printed as -0 deviates by 0."""
    csv = "# degenlab 0.1.0\nid,lambda,residual\nt,0.5,1e-12\nu,0.25,2e-12\nz,0,0\n"
    txt = "# certificates\nv_minimum t=1.5 value=0.25\n"
    parent = _tree(tmp_path / "parent", {"e.csv": csv, "c.txt": txt})
    other = _tree(tmp_path / "change", {
        "e.csv": csv.replace("1e-12", "1.5e-12").replace("0.25", "0.2500001")
                    .replace("z,0,", "z,-0,"),
        "c.txt": txt.replace("t=1.5", "t=1.50001").replace("value=0.25", "value=0.3")})
    rc, out = _run(parent, other)
    assert rc == 1
    differ = dict(line.split(None, 1) for line in out.split("differ: ")[1].splitlines()[1:])
    assert differ == {"e.csv": "0.333  line 3, column residual",
                      "c.txt": "0.167  line 2, column value"}
