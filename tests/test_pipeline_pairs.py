"""scripts/pipeline_pairs.py on stand-in checkouts, and the command table it
shares with scripts/full_pipeline.py."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pipeline_pairs = _load("pipeline_pairs")
full_pipeline = _load("full_pipeline")

# logs "<checkout> <argv>" and exits with the code given
STAND_IN = '''from pathlib import Path

here = Path(__file__).resolve().parents[2]


def run(argv):
    with open(here.parent / "order.log", "a") as log:
        log.write(here.name + " " + " ".join(argv) + "\\n")
    return {code}
'''


def _checkout(root: Path, code: int) -> Path:
    (root / "src" / "degenlab").mkdir(parents=True)
    (root / "src" / "degenlab" / "__init__.py").write_text("")
    (root / "src" / "degenlab" / "cli.py").write_text(STAND_IN.format(code=code))
    return root


def test_the_table_holds_the_pipelines_commands_in_order():
    """full_pipeline runs the seven commands of its table, in this order, and
    sweep-quadratic alone writes into a subdirectory."""
    table = full_pipeline.COMMANDS
    assert list(table) == ["eigen", "sweep", "sweep-quadratic", "certify", "solve",
                           "fermi-demo", "report"]
    assert table["eigen"][0] == ["eigen", "a=-0.5 0 0.5", "h=0.015625", "aux_a=0.5 -1",
                                 "r_list=1 4 16 64"]
    assert table["sweep-quadratic"] == (table["sweep"][0] + ["mu=quadratic:0.1"],
                                        "sweep-quadratic")
    assert {sub for name, (_, sub) in table.items() if name != "sweep-quadratic"} == {""}
    assert pipeline_pairs.COMMANDS is not None and list(pipeline_pairs.COMMANDS) == list(table)


def test_pairs_alternate_the_side_that_runs_first(tmp_path, capsys):
    """Pair k runs the parent first when k is even, the change first when k
    is odd; each run is the table's command, in a fresh process on its
    checkout's src.  Equal exit codes: exit 0."""
    parent, change = _checkout(tmp_path / "parent", 1), _checkout(tmp_path / "change", 1)
    assert pipeline_pairs.main([str(parent), str(change), "certify", "--pairs", "3"]) == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent certify", "change certify", "change certify", "parent certify",
        "parent certify", "change certify"]
    out = capsys.readouterr().out
    assert "certify: 3 pairs" in out
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == [
        "time", "wall", "cpu"]


def test_differing_exit_codes_exit_1(tmp_path, capsys):
    parent, change = _checkout(tmp_path / "parent", 0), _checkout(tmp_path / "change", 1)
    assert pipeline_pairs.main([str(parent), str(change), "report", "--pairs", "2"]) == 1
    assert "exit codes differ in 2 pairs" in capsys.readouterr().out


def test_a_run_without_timing_exits_1(tmp_path, capsys):
    """A checkout without its own degenlab is not timed on another one found
    on the path: the run prints no timing, and the script exits 1."""
    parent = _checkout(tmp_path / "parent", 0)
    assert pipeline_pairs.main([str(parent), str(tmp_path / "none"), "solve", "--pairs", "1"]) == 1
    err = capsys.readouterr().err
    assert "no timing from" in err and "not from" in err


def test_summary_gives_medians_iqr_and_wins():
    """Each side's median and interquartile distance (inclusive quartiles) of
    both times, and the pairs the change won; a tie counts for neither."""
    parent = [{"wall": w, "cpu": 1.0} for w in (0.10, 0.12, 0.11, 0.20)]
    change = [{"wall": w, "cpu": 1.0} for w in (0.06, 0.13, 0.07, 0.08)]
    (name, p, c, wins), (cpu, _, _, ties) = pipeline_pairs.summary(list(zip(parent, change)))
    assert (name, wins, cpu, ties) == ("wall", 3, "cpu", 0)
    assert p == pytest.approx((0.115, 0.14 - 0.1075))
    assert c == pytest.approx((0.075, 0.0925 - 0.0675))
    assert pipeline_pairs.spread([0.3]) == (0.3, 0.0)
