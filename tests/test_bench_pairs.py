"""scripts/bench_pairs.py on canned perfbench JSON lines and stand-in checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("wall_s", "lower"), ("peak_rss_mb", "lower")]


def _line(wall, rss, failed=0):
    """A JSON line as perfbench prints it, with all five end-to-end metrics."""
    values = {"wall_s": wall, "cpu_s": wall, "cold_wall_s": 2 * wall, "setup_s": 0.4,
              "peak_rss_mb": rss}
    return json.dumps({"correct": failed == 0, "attempted": 40, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}})


def test_record_is_the_json_line_after_the_report():
    out = "perfbench workload=eigen seed=3\n  wall_s 0.05 s\n" + _line(0.05, 90.0) + "\n"
    assert bench_pairs.record(out)["metrics"]["wall_s"]["value"] == 0.05
    with pytest.raises(RuntimeError, match="no JSON line"):
        bench_pairs.record("benchmark failed: time limit\n")


def test_summary_medians_parent_spread_and_wins():
    """Medians of each side, the parent's interquartile distance, and the
    pairs the change won; a tie counts for neither side."""
    parent = [(0.050, 90.0), (0.052, 90.0), (0.051, 91.0), (0.060, 90.0)]
    change = [(0.044, 90.0), (0.053, 89.0), (0.045, 91.0), (0.046, 90.5)]
    pairs = [(bench_pairs.record(_line(*p)), bench_pairs.record(_line(*c)))
             for p, c in zip(parent, change)]
    rows = bench_pairs.summary(pairs, METRICS)
    name, pm, cm, iqr, wins = rows[0]
    assert name == "wall_s" and wins == 3
    assert pm == pytest.approx(0.0515) and cm == pytest.approx(0.0455)
    assert iqr == pytest.approx(0.054 - 0.05075)          # inclusive quartiles
    assert rows[1] == ("peak_rss_mb", 90.0, 90.25, pytest.approx(0.25), 1)


STAND_IN = '''import json, sys
from pathlib import Path

here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + sys.argv[sys.argv.index("--seed") + 1] + "\\n")
print("report")
print(json.dumps({LINE}))
'''


def _checkout(root: Path, line: str) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STAND_IN.replace("{LINE}", repr(json.loads(line))))
    return root


@pytest.mark.parametrize("failed,code", [(0, 0), (2, 1)])
def test_pairs_alternate_and_failures_exit_1(tmp_path, capsys, failed, code):
    parent = _checkout(tmp_path / "parent", _line(0.05, 90.0))
    change = _checkout(tmp_path / "change", _line(0.04, 90.0, failed))
    argv = [str(parent), str(change), "--workload", "eigen", "--seeds", "7", "3"]
    assert bench_pairs.main(argv) == code
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 7", "change 7", "change 8", "parent 8", "parent 9", "change 9"]
    assert "wall_s" in capsys.readouterr().out
