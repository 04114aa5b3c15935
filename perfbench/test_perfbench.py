"""Tests of the benchmark itself: BENCHMARK.json against the code that
produces the metrics, failure accounting, and the per-layer wrappers."""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import job
import probe
import pytest
import run
import tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def passing_job(**changes):
    result = {"audit": True, "restored": True, "digest": "d0", "setup_s": [0.01],
              "raw_setup_s": [0.02], "wall_s": 1.0, "raw_wall_s": 2.0, "generated": 100,
              "peak_rss_mb": 30.0, "modelled": {}}
    result.update(changes)
    return result


class TestDefinition:
    def test_workloads_match_scenarios(self):
        assert {w["name"] for w in BENCH["workloads"]} <= set(job.WORKLOADS)
        for w in BENCH["workloads"]:
            assert w["why"] == job.why(w["name"])
            assert 0 < len(w["why"]) <= 200

    def test_end_to_end_metrics_match(self):
        assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
        bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_per_layer_metrics_match(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
        assert listed == {n: (u, b) for n, (u, b, _) in tracer.PER_LAYER.items()}

    def test_every_layer_metric_says_what_it_should_move(self):
        for name, (_, _, should_move) in tracer.PER_LAYER.items():
            assert should_move.strip(), name


class TestJudge:
    def test_all_agreeing_jobs_pass(self):
        good, failed, digest = run.judge([passing_job(), passing_job()], None)
        assert (len(good), failed, digest) == (2, 0, "d0")

    def test_audit_failure_counts_as_failed(self):
        good, failed, _ = run.judge([passing_job(), passing_job(audit=False)], None)
        assert (len(good), failed) == (1, 1)

    def test_digest_disagreement_counts_as_failed(self):
        good, failed, _ = run.judge([passing_job(), passing_job(digest="d1")], None)
        assert (len(good), failed) == (1, 1)

    def test_disagreeing_with_recorded_digest_fails_every_job(self):
        good, failed, digest = run.judge([passing_job(), passing_job()], "d9")
        assert (len(good), failed, digest) == (0, 2, "d9")

    def test_raised_job_and_unrestored_wrappers_count_as_failed(self):
        jobs = [{"error": "exit 1"}, passing_job(restored=False), passing_job()]
        good, failed, _ = run.judge(jobs, None)
        assert (len(good), failed) == (1, 2)


class TestProbe:
    def test_speed_is_one_at_reference(self):
        assert probe.speed([probe.REFERENCE_S] * 3) == pytest.approx(1.0)
        assert probe.speed([2 * probe.REFERENCE_S]) == pytest.approx(0.5)

    def test_bracket_scales_by_probe_speed(self):
        result, raw, scaled = probe.bracket(lambda: 2 * probe.REFERENCE_S, lambda: "x")
        assert result == "x" and scaled == pytest.approx(raw / 2)

    def test_sampler_subtracts_probing_and_restores_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = probe.Sampler(probe.Probe())
        sampler.start()
        t0 = time.perf_counter()
        while len(sampler.durations) < 3:
            pass
        wall = time.perf_counter() - t0
        sampler.stop()
        net, scaled = sampler.scale(wall)
        assert signal.getsignal(signal.SIGALRM) is before
        assert sum(sampler.durations) < sampler.spent_s < wall
        assert net == pytest.approx(wall - sampler.spent_s)
        assert scaled == pytest.approx(net * probe.speed(sampler.durations))


def test_untraced_job_reports_raw_and_scaled_times(tmp_path):
    result = job.measure("baseline", 3, tmp_path / "plain", horizon_s=1.0)
    assert len(result["setup_s"]) == len(result["raw_setup_s"]) == job.SETUP_REPEATS
    assert 0 < result["raw_wall_s"] and 0 < result["wall_s"]


def test_traced_job_matches_untraced_and_restores(tmp_path):
    from leoqsim import engine, scheduling

    before = (engine.decide_next_index, vars(scheduling.PqwrrScheduler)["enqueue"])
    plain = job.measure("hotspot", 3, tmp_path / "plain", horizon_s=2.0)
    t = tracer.Tracer()
    traced = job.measure("hotspot", 3, tmp_path / "traced", tracer=t, horizon_s=2.0)
    assert traced["restored"] and plain["audit"] and traced["audit"]
    assert traced["digest"] == plain["digest"]
    assert (engine.decide_next_index, vars(scheduling.PqwrrScheduler)["enqueue"]) == before
    layers = run.per_layer(plain, traced)
    assert set(layers) == set(tracer.PER_LAYER)
    assert layers["traffic.next_calls"] == traced["generated"] + 1  # last call ends the stream
    assert 1 < layers["routing.backup_build_calls"] <= 1 + layers["congestion.notifications"]
    assert layers["routing.decide_calls"] > 0


def test_traced_job_restores_after_an_error(tmp_path):
    from leoqsim import engine

    before = engine.Simulation.run
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(FileExistsError):  # raised by stats.export, inside the traced region
        job.measure("baseline", 1, not_a_dir, tracer=tracer.Tracer(), horizon_s=1.0)
    assert engine.Simulation.run is before


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path / ".perfbench_out").exists()
