"""Regression guard on the per-packet Python work of the event loop.

Counts the Python-level calls into `leoqsim` code (`call` events from
`sys.setprofile` whose code object lives in the package) made by `run()` on a
5 s seed-42 run of the benchmark's baseline scenario. The count depends only
on the code and the scenario, not on the host, so it is checked exactly
against a ceiling: a change that adds a call to the per-hop pipeline shows up
here long before it shows up in a wall-time benchmark.
"""

import sys
from pathlib import Path

import leoqsim
from leoqsim import engine
from leoqsim.scenario import apply_overrides, loads_scenario

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "baseline.ini"
PACKAGE = str(Path(leoqsim.__file__).resolve().parent)

# Package calls made by one 5 s seed-42 baseline run() of 3,971 packets:
# 186,608 (47 per packet). Before the per-hop pipeline was flattened the same
# run made 331,207 (83 per packet).
MAX_CALLS = 186_608


def package_calls(sim: engine.Simulation) -> int:
    """Python calls into package code while `sim.run()` executes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    return calls


def test_baseline_run_makes_no_more_package_calls_than_pinned():
    text = apply_overrides(BASELINE.read_text(encoding="utf-8"),
                           ["run.seed=42", "run.duration_s=5"])
    sim = engine.Simulation(loads_scenario(text))
    calls = package_calls(sim)
    assert sim.stats.generated_total() == 3971
    assert calls <= MAX_CALLS
