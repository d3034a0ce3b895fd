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
    """Each side's quartiles and median, and the pairs the change won; a tie
    counts for neither side."""
    parent = [(0.050, 90.0), (0.052, 90.0), (0.051, 91.0), (0.060, 90.0)]
    change = [(0.044, 90.0), (0.053, 89.0), (0.045, 91.0), (0.046, 90.5)]
    pairs = [(bench_pairs.record(_line(*p)), bench_pairs.record(_line(*c)))
             for p, c in zip(parent, change)]
    rows = bench_pairs.summary(pairs, METRICS)
    name, pq, cq, wins = rows[0]
    assert name == "wall_s" and wins == 3
    assert pq == pytest.approx((0.05075, 0.0515, 0.054))   # inclusive quartiles
    assert cq == pytest.approx((0.04475, 0.0455, 0.04775))
    assert rows[1] == ("peak_rss_mb", pytest.approx((90.0, 90.0, 90.25)),
                       pytest.approx((89.75, 90.25, 90.625)), 1)
    assert bench_pairs.quartiles([0.07]) == (0.07, 0.07, 0.07)


# logs "<checkout> <workload> <seed>" and scales wall_s by the seed
STAND_IN = '''import json, sys
from pathlib import Path

here = Path(__file__).resolve().parents[1]
workload, seed = (sys.argv[sys.argv.index(flag) + 1] for flag in ("--workload", "--seed"))
with open(here.parent / "order.log", "a") as log:
    log.write(" ".join((here.name, workload, seed)) + "\\n")
rec = {LINE}
rec["metrics"]["wall_s"]["value"] *= int(seed)
print("report")
{MACHINE}
print(json.dumps(rec))
'''


def _checkout(root: Path, line: str, machine: str = "") -> Path:
    """A checkout whose perfbench prints ``machine`` (a report line, with
    {seed} for the seed) before the JSON line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STAND_IN.replace("{LINE}", repr(json.loads(line)))
        .replace("{MACHINE}", f"print({machine!r}.replace('{{seed}}', seed))" if machine else ""))
    return root


@pytest.mark.parametrize("failed,code", [(0, 0), (2, 1)])
def test_pairs_alternate_and_failures_exit_1(tmp_path, capsys, failed, code):
    parent = _checkout(tmp_path / "parent", _line(0.05, 90.0))
    change = _checkout(tmp_path / "change", _line(0.04, 90.0, failed))
    argv = [str(parent), str(change), "--workload", "eigen", "--seeds", "7", "3"]
    assert bench_pairs.main(argv) == code
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent eigen 7", "change eigen 7", "change eigen 8", "parent eigen 8",
        "parent eigen 9", "change eigen 9"]
    # wall_s: parent 0.35, 0.40, 0.45 and change 0.28, 0.32, 0.36 over seeds 7-9
    lines = capsys.readouterr().out.splitlines()
    wall = next(line for line in lines if line.split()[0] == "wall_s").split()
    assert [float(v) for v in wall[1:8]] == pytest.approx(
        [0.375, 0.40, 0.425, 0.30, 0.32, 0.34, 0.05])
    assert wall[8] == "3/3"


@pytest.mark.parametrize("names", [["solve-fine", "eigen"], ["all"]])
def test_each_pair_runs_every_workload_on_both_sides(tmp_path, capsys, names):
    """Pair k runs each workload in turn on both checkouts, with the side that
    goes first alternating between pairs; ``all`` is every workload of
    BENCHMARK.json.  Each workload gets its own summary."""
    parent = _checkout(tmp_path / "parent", _line(0.05, 90.0))
    change = _checkout(tmp_path / "change", _line(0.04, 90.0))
    argv = [str(parent), str(change), "--workload", *names, "--seeds", "3", "2"]
    assert bench_pairs.main(argv) == 0
    spec = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    expected = [w["name"] for w in spec["workloads"]] if names == ["all"] else names
    assert bench_pairs.workloads(names) == expected
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == (
        [f"{side} {w} 3" for w in expected for side in ("parent", "change")]
        + [f"{side} {w} 4" for w in expected for side in ("change", "parent")])
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if "pairs, seeds 3-4" in line] \
        == expected


def test_record_holds_every_run_with_side_seed_and_order(tmp_path):
    """--record writes perfbench's whole JSON line of each run, in the order
    the runs ended, with its workload, pair, seed, side and first side."""
    parent = _checkout(tmp_path / "parent", _line(0.05, 90.0))
    change = _checkout(tmp_path / "change", _line(0.04, 91.0))
    path = tmp_path / "runs.jsonl"
    argv = [str(parent), str(change), "--workload", "eigen", "--seeds", "7", "2",
            "--record", str(path)]
    assert bench_pairs.main(argv) == 0
    runs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["pair"], r["seed"], r["side"], r["first"]) for r in runs] == [
        (0, 7, "parent", "parent"), (0, 7, "change", "parent"),
        (1, 8, "change", "change"), (1, 8, "parent", "change")]
    assert {r["workload"] for r in runs} == {"eigen"}
    assert all((r["correct"], r["attempted"], r["failed"]) == (True, 40, 0) for r in runs)
    assert [r["metrics"]["wall_s"]["value"] for r in runs] == pytest.approx(
        [0.35, 0.28, 0.32, 0.40])
    assert [r["metrics"]["peak_rss_mb"]["value"] for r in runs] == [90.0, 91.0, 91.0, 90.0]


MACHINE = ("machine speed {speed} of the reference; unscaled medians wall_s={wall} "
           "cpu_s=0.02 cold_wall_s=0.025 setup_s=0.41")


def test_record_reads_the_speed_factor_and_unscaled_medians():
    out = ("perfbench workload=solve-fine seed=3\n" + MACHINE.format(speed="1.730", wall="0.0201")
           + "\n  wall_s 0.0348 s\n" + _line(0.0348, 90.0) + "\n")
    rec = bench_pairs.record(out)
    assert rec["speed"] == 1.73 and rec["metrics"]["wall_s"]["value"] == 0.0348
    assert rec["raw"] == {"wall_s": 0.0201, "cpu_s": 0.02, "cold_wall_s": 0.025, "setup_s": 0.41}
    assert "speed" not in bench_pairs.record(_line(0.05, 90.0))      # a traced run has none


def test_summary_gives_each_sides_unscaled_medians_and_speed(tmp_path, capsys):
    """A calibration that moved shows: the scaled wall_s can rise while the
    raw one falls.  --record keeps the speed and raw medians of each run."""
    parent = _checkout(tmp_path / "parent", _line(0.01, 90.0),
                       MACHINE.format(speed="1.5", wall="0.0{seed}"))
    change = _checkout(tmp_path / "change", _line(0.02, 90.0),
                       MACHINE.format(speed="2.5", wall="0.00{seed}"))
    path = tmp_path / "runs.jsonl"
    argv = [str(parent), str(change), "--workload", "solve-fine", "--seeds", "2", "3",
            "--record", str(path)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index(next(line for line in lines if line.split()[:1] == ["unscaled"]))
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in lines[at + 1:]}
    assert rows["wall_s"] == pytest.approx([0.03, 0.003])    # medians over seeds 2-4
    assert rows["speed"] == [1.5, 2.5] and rows["setup_s"] == [0.41, 0.41]
    runs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["side"], r["speed"], r["raw"]["wall_s"]) for r in runs[:2]] == [
        ("parent", 1.5, 0.02), ("change", 2.5, 0.002)]
    assert bench_pairs.raw_summary([(bench_pairs.record(_line(0.05, 90.0)),) * 2]) == []


def _quartiles(values):
    return bench_pairs.quartiles(list(values))


@pytest.mark.parametrize("parent,change,better,want", [
    # the change wins 10/10 and 9/10, its median better by more than the parent's IQR
    ([1.00, 1.01, 1.02, 1.03, 1.04] * 2, [0.90] * 10, "lower", "gain"),
    ([1.00, 1.01, 1.02, 1.03, 1.04] * 2, [0.90] * 9 + [1.05], "lower", "gain"),
    ([100.0, 101.0] * 5, [110.0] * 9 + [99.0], "higher", "gain"),
    # 8/10 wins, or a gap inside the parent's IQR, is no gain
    ([1.00, 1.01, 1.02, 1.03, 1.04] * 2, [0.90] * 8 + [1.05] * 2, "lower", "level"),
    ([1.0, 1.1] * 5, [0.95, 1.05] * 5, "lower", "level"),
    # worse by more than the bound (0.25 of the parent's median), either way round
    ([1.0] * 10, [1.3] * 10, "lower", "worse"),
    ([1.0] * 10, [1.2] * 10, "lower", "level"),
    ([100.0] * 10, [70.0] * 10, "higher", "worse"),
    # a parent IQR wider than the bound leaves it open unless every pair is won
    ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [1.1] * 10, "lower", "unresolved"),
    ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [0.5] * 10, "lower", "gain"),
    ([0.6, 0.8, 1.0, 1.2, 1.4] * 2, [0.59, 0.79, 0.99, 1.19, 1.39] * 2, "lower", "level"),
])
def test_reading_of_a_row(parent, change, better, want):
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    got = bench_pairs.reading(_quartiles(parent), _quartiles(change), wins, len(parent),
                              better, 0.25)
    assert got == want


@pytest.mark.parametrize("change_wall,want", [(0.04, "gain"), (0.07, "worse"), (0.05, "level")])
def test_each_summary_row_ends_with_its_reading(tmp_path, capsys, change_wall, want):
    """The reading closes each row, with the bound of BENCHMARK.json: wall_s
    0.04 against 0.05 wins every pair by more than the parent's IQR, 0.07 is
    worse by more than its bound 0.25, and equal values are level, as are
    setup_s and peak_rss_mb, which the stand-ins keep equal."""
    parent = _checkout(tmp_path / "parent", _line(0.05, 90.0))
    change = _checkout(tmp_path / "change", _line(change_wall, 90.0))
    argv = [str(parent), str(change), "--workload", "eigen", "--seeds", "7", "3"]
    assert bench_pairs.main(argv) == 0
    assert bench_pairs.bounds() == {"wall_s": 0.25, "cpu_s": 0.25, "cold_wall_s": 0.25,
                                    "setup_s": 0.25, "peak_rss_mb": 0.1}
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[-1] for line in lines
            if line.split()[:1] and line.split()[0] in bench_pairs.bounds()}
    assert rows == {"wall_s": want, "cpu_s": want, "cold_wall_s": want,
                    "setup_s": "level", "peak_rss_mb": "level"}
