"""Exit codes of the `leoqsim` command line: 0 success, 1 validation error,
2 conservation-audit failure, 3 I/O error."""

import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from leoqsim import cli, engine

SRC = Path(__file__).resolve().parents[1] / "src"
GRID_PATH = SRC / "leoqsim" / "data" / "default_grid.txt"

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


def test_validate_rejects_a_default_section(scenario, capsys):
    assert cli.main(["validate", scenario("[DEFAULT]\nseed = 7\n")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "invalid: [DEFAULT]: unknown section\n"


def test_validate_rejects_a_missing_scenario_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate", "nosuch.ini"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: scenario 'nosuch.ini': ")


def test_validate_rejects_a_directory(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"invalid: scenario {str(tmp_path)!r}: ")


def test_validate_and_run_reject_a_flow_endpoint_off_the_globe(scenario, tmp_path, capsys):
    path = scenario(SHORT_RUN + "[traffic]\nflows = 100,-100 -> 50,400 @ 600\n")
    assert cli.main(["validate", path]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: [traffic] flows: ")
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("invalid: [traffic] flows: ")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[traffic]\nflows = 40,-100 -> 50,10 @ 1e300\n",
    "[run]\nduration_s = 1e12\n[routing]\nslot_length_s = 1e-9\n",
], ids=["flow of 1e300 pkt/s", "1e-9 s slots over 1e12 s"])
def test_validate_and_run_reject_a_run_that_cannot_finish(text, scenario, tmp_path, monkeypatch,
                                                          capsys):
    def never(cfg):
        raise AssertionError("a scenario past the bound was built into a simulation")

    monkeypatch.setattr(engine, "Simulation", never)
    path = scenario(text)
    assert cli.main(["validate", path]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("invalid: [") and err.count("\n") == 1
    assert "more than 1e+09" in err
    out = tmp_path / "out"
    assert cli.main(["run", path, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == err
    assert not out.exists()


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


def test_a_spool_that_cannot_be_written_is_an_io_error(scenario, tmp_path, monkeypatch, capsys):
    # The packet trace is spooled as the run goes; a full disk stops the run.
    class FullDisk(io.StringIO):
        def write(self, text):
            if self.tell() > 10_000:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return super().write(text)

    monkeypatch.setattr(engine.tempfile, "TemporaryFile", lambda *args, **kwargs: FullDisk())
    out = tmp_path / "out"
    code = cli.main(["run", scenario(SHORT_RUN + "trace = true\n"), "--out", str(out)])
    assert code == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot write the report: [Errno 28] ")
    assert not out.exists()


def closed_stdout(args: list[str]) -> tuple[int, bytes]:
    """Exit code and stderr of `leoqsim ARGS` in a subprocess whose stdout
    pipe is closed before it can write."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-m", "leoqsim.cli", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


def test_run_into_a_closed_stdout_still_exports(scenario, tmp_path):
    out = tmp_path / "out"
    assert closed_stdout(["run", scenario(SHORT_RUN), "--out", str(out)]) == (cli.EXIT_IO, b"")
    assert (out / "run_meta.json").exists()


def test_compare_into_a_closed_stdout_is_an_io_error(report_dir):
    assert closed_stdout(["compare", str(report_dir), str(report_dir)]) == (cli.EXIT_IO, b"")


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


def test_compare_a_non_numeric_summary_cell_is_an_io_error(report_dir, broken_copy, capsys):
    summary = broken_copy / "summary.csv"
    lines = summary.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("p90_delay_ms")
    cells = lines[1].split(",")
    cells[col] = "abc"
    lines[1] = ",".join(cells)
    summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")


def test_compare_skips_a_trailing_blank_line_in_the_summary(report_dir, broken_copy, capsys):
    summary = broken_copy / "summary.csv"
    summary.write_text(summary.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["summary.csv", "run_meta.json"])
def test_compare_a_report_file_that_is_not_utf8_is_an_io_error(
    report_dir, broken_copy, capsys, name
):
    path = broken_copy / name
    path.write_bytes(b"\xff" + path.read_bytes())
    assert cli.main(["compare", str(report_dir), str(broken_copy)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("cannot read reports: ")
