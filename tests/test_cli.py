"""Exit codes of the `leoqsim` command line: 0 success, 1 validation error,
2 conservation-audit failure, 3 I/O error."""

import json
import shutil
from pathlib import Path

import pytest

from leoqsim import cli, engine

GRID_PATH = Path(__file__).resolve().parents[1] / "src" / "leoqsim" / "data" / "default_grid.txt"

SHORT_RUN = "[run]\nduration_s = 1\nseed = 42\n"


@pytest.fixture
def scenario(tmp_path):
    def write(text, name="s.ini"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def report_dir(tmp_path, scenario):
    """A finished 1 s run's report directory."""
    out = tmp_path / "report"
    assert cli.main(["run", scenario(SHORT_RUN), "--out", str(out)]) == cli.EXIT_OK
    return out


def test_validate_accepts_a_good_scenario(scenario):
    assert cli.main(["validate", scenario(SHORT_RUN)]) == cli.EXIT_OK


def test_validate_rejects_a_bad_scenario(scenario):
    assert cli.main(["validate", scenario("[run]\nseed = x\n")]) == cli.EXIT_VALIDATION


def test_validate_rejects_a_missing_scenario_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate", "nosuch.ini"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: scenario 'nosuch.ini': ")


def test_validate_rejects_a_directory(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"invalid: scenario {str(tmp_path)!r}: ")


def test_run_rejects_a_missing_scenario_file(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["run", str(tmp_path / "nosuch.ini"), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: scenario ")
    assert not out.exists()


def test_validate_rejects_non_finite_grid_weights(scenario, tmp_path, capsys):
    grid = GRID_PATH.read_text(encoding="utf-8").replace(" 8 12 14 12 ", " inf 12 14 12 ", 1)
    (tmp_path / "inf.txt").write_text(grid, encoding="utf-8")
    code = cli.main(["validate", scenario("[traffic]\ngrid_file = inf.txt\n")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: [traffic] grid_file: ")


def test_validate_rejects_a_missing_grid_file(scenario, capsys):
    code = cli.main(["validate", scenario("[traffic]\ngrid_file = nope.txt\n")])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: [traffic] grid_file")


def test_validate_rejects_an_override_on_a_file_without_sections(scenario, capsys):
    code = cli.main(["validate", scenario("seed = 1\n"), "--set", "run.seed=2"])
    assert code == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: unparseable scenario file")


def test_run_writes_the_report(report_dir):
    assert (report_dir / "summary.csv").read_text(encoding="utf-8").startswith("class,")


def test_run_rejects_an_infinite_horizon(scenario, tmp_path):
    out = tmp_path / "out"
    code = cli.main(["run", scenario("[run]\nduration_s = inf\n"), "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    assert not out.exists()


def test_run_rejects_a_missing_grid_file(scenario, tmp_path, capsys):
    out = tmp_path / "out"
    text = SHORT_RUN + "[traffic]\ngrid_file = nope.txt\n"
    assert cli.main(["run", scenario(text), "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: [traffic] grid_file")
    assert not out.exists()


def test_run_into_an_existing_file_is_an_io_error(scenario, tmp_path):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert cli.main(["run", scenario(SHORT_RUN), "--out", str(out)]) == cli.EXIT_IO


def test_run_reports_a_failed_audit(scenario, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "conservation_audit", lambda report: False)
    out = tmp_path / "out"
    assert cli.main(["run", scenario(SHORT_RUN), "--out", str(out)]) == cli.EXIT_AUDIT


def test_compare_a_report_with_itself(report_dir):
    assert cli.main(["compare", str(report_dir), str(report_dir)]) == cli.EXIT_OK


def test_compare_rejects_mismatched_horizons(report_dir, scenario, tmp_path):
    other = tmp_path / "other"
    half = scenario("[run]\nduration_s = 0.5\n", name="half.ini")
    assert cli.main(["run", half, "--out", str(other)]) == cli.EXIT_OK
    assert cli.main(["compare", str(report_dir), str(other)]) == cli.EXIT_VALIDATION


def test_compare_a_missing_directory_is_an_io_error(report_dir, tmp_path):
    missing = tmp_path / "missing"
    assert cli.main(["compare", str(report_dir), str(missing)]) == cli.EXIT_IO


@pytest.fixture
def broken_copy(report_dir, tmp_path):
    """A copy of the finished report, to be damaged by the test."""
    return Path(shutil.copytree(report_dir, tmp_path / "broken"))


def test_compare_a_report_without_a_horizon_is_an_io_error(report_dir, broken_copy, capsys):
    meta = json.loads((broken_copy / "run_meta.json").read_text(encoding="utf-8"))
    del meta["horizon_s"]
    (broken_copy / "run_meta.json").write_text(json.dumps(meta), encoding="utf-8")
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")


def test_compare_a_summary_without_a_class_column_is_an_io_error(
    report_dir, broken_copy, capsys
):
    summary = broken_copy / "summary.csv"
    text = summary.read_text(encoding="utf-8")
    summary.write_text(text.replace("class,", "klass,", 1), encoding="utf-8")
    assert cli.main(["compare", str(broken_copy), str(report_dir)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")


def test_compare_an_empty_summary_is_an_io_error(report_dir, broken_copy, capsys):
    (broken_copy / "summary.csv").write_text("", encoding="utf-8")
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")


def test_compare_a_meta_that_is_not_an_object_is_an_io_error(report_dir, broken_copy, capsys):
    (broken_copy / "run_meta.json").write_text("[1]\n", encoding="utf-8")
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")
