"""Regression guard on the per-packet Python work of the event loop, and
on the backup-table builds of a congested run.

Counts the Python-level calls into `leoqsim` code (`call` events from
`sys.setprofile` whose code object lives in the package) made by `run()` on a
5 s seed-42 run of the benchmark's baseline scenario, and of its hotspot
scenario, whose busy/idle notifications add backup forwards, buffer drops,
enqueues, dequeues and wait-queue drains. The count depends only on the code
and the scenario, not on the host, so it is checked exactly against a
ceiling: a change that adds a call to the per-hop pipeline shows up here long
before it shows up in a wall-time benchmark. The same holds for the
busy/idle rule runs of that baseline run, and for the busy/idle rule runs and
the number of backup tables of a 10 s seed-42 run of the hotspot scenario.

History of the hotspot's rule runs started by arrivals: 15,851, nearly all
at Busy-notified nodes, while such a node ran the rule on every arrival; 438
since it runs the rule only once its rule cutoff has passed the m-th most
recent time of its last run (m the smallest count not below alpha).
"""

import sys
from collections import Counter
from pathlib import Path

import leoqsim
from leoqsim import engine
from leoqsim.congestion import NodeCongestionState
from leoqsim.scenario import apply_overrides, loads_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
BASELINE = SCENARIOS / "baseline.ini"
HOTSPOT = SCENARIOS / "hotspot.ini"
PACKAGE = str(Path(leoqsim.__file__).resolve().parent)

# Package calls made by one 5 s seed-42 baseline run() of 3,971 packets: 91,103
# (22.9 per packet), since stats buckets schedule no tick event: one
# `periods_elapsed` call fewer in the periodic schedule. Before that 91,104,
# since a snapshot is its neighbour table and a route table its (next_idx,
# cost_ps) pair, with no wrapper object to build. Before that 91,106 (the
# ceiling read 91,107), since a packet that finishes service is forwarded
# inside run() rather than by a `_route` call. Before that 108,286 (27.3 per
# packet), since the uplink and downlink delays compute the satellite position
# in line. Before that 116,173 (29.3 per packet), since an arrival runs the
# busy/idle rule only when it can cross a threshold. Before that 116,771 (29.4
# per packet), since a packet that finds its satellite idle starts service
# without an enqueue and a dequeue. Before that 128,432 (32.3 per packet),
# since forwarding reads the access row that a periodic event refreshes. Before
# that `access_index` made it 149,577 (37.7 per packet), and before arrival
# streams were drawn a block at a time the scalar samplers 169,419 (42.7);
# before the forwarding decision moved into `Simulation._route` 186,608 (47.0);
# before the per-hop pipeline was flattened 331,207 (83.4).
MAX_CALLS = 91_103

# Package calls made by one 5 s seed-42 hotspot run() of 6,956 packets, with
# 8,289 backup forwards, 1,317 buffer drops, 103 wait-queue parks and 15
# busy/idle notifications: 176,297 (25.3 per packet), since busy buckets are
# read off the state log after the run: no `note_busy` and `bucket_of` call at
# a Busy notification or at a sweep while some satellite is busy, and no stats
# tick to schedule. Before that 176,334, since neither the snapshot nor its
# primary and 10 backup tables is wrapped in an object. Before that 176,346,
# since a notification reaches the engine paired with its satellite's index and
# is logged in line: no `index_of` and no `note_state_change` call each, and no
# `finalize`. Before that 176,377, since a drain hands the parked packets to a
# lane that run() routes in line. Before that 176,598, with each drained packet
# routed by a `_route` call and each park made by a `_wait` call. Before
# service completions forwarded in line, drops recorded their bucket in line
# and arrival streams merged a block at a time, it was 209,190 (30.1).
MAX_HOTSPOT_CALLS = 176_297

# Busy/idle rule runs (`NodeCongestionState.evaluate`) in the baseline run: its ten
# sweeps evaluate each of the 66 satellites, and 61 of its 17,191 satellite
# arrivals find their node holding more times than its limit. Running the
# rule on every arrival made it 17,191 + 660.
SWEEP_RULE_RUNS = 660
MAX_ARRIVAL_RULE_RUNS = 61

# Busy/idle rule runs in one 10 s seed-42 hotspot run(): its 20 sweeps
# evaluate each of the 66 satellites, and 438 of its satellite arrivals find
# an Idle-notified node past its limit or a Busy-notified node whose window
# may have fallen below alpha.
HOTSPOT_SWEEP_RULE_RUNS = 1320
MAX_HOTSPOT_ARRIVAL_RULE_RUNS = 438

# Backup tables built by one 10 s seed-42 hotspot run(): its 32 busy/idle
# notifications meet 20 distinct busy sets in its one routing slot, and each
# is built once. Rebuilding on every notification made 32.
MAX_BACKUP_BUILDS = 20


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


def test_hotspot_run_makes_no_more_package_calls_than_pinned():
    text = apply_overrides(HOTSPOT.read_text(encoding="utf-8"),
                           ["run.seed=42", "run.duration_s=5"])
    sim = engine.Simulation(loads_scenario(text))
    calls = package_calls(sim)
    report = sim.stats
    assert report.generated_total() == 6956
    assert (report.backup_forwards, report.wait_enqueues, report.dropped_total()) == (8289, 103, 1317)
    assert calls <= MAX_HOTSPOT_CALLS


def rule_runs(monkeypatch, scenario: Path, duration_s: int) -> Counter:
    """Busy/idle rule runs of one seed-42 run, by caller: the engine's sweeps
    ("run") and arrivals ("record_arrival")."""
    runs = Counter()
    rule = NodeCongestionState.evaluate

    def counted(state, t, cfg):
        runs[sys._getframe(1).f_code.co_name] += 1
        return rule(state, t, cfg)

    monkeypatch.setattr(NodeCongestionState, "evaluate", counted)
    text = apply_overrides(scenario.read_text(encoding="utf-8"),
                           ["run.seed=42", f"run.duration_s={duration_s}"])
    engine.Simulation(loads_scenario(text)).run()
    assert runs.keys() <= {"run", "record_arrival"}
    return runs


def test_baseline_run_runs_the_busy_idle_rule_no_more_than_pinned(monkeypatch):
    runs = rule_runs(monkeypatch, BASELINE, 5)
    assert runs["run"] == SWEEP_RULE_RUNS
    assert runs["record_arrival"] <= MAX_ARRIVAL_RULE_RUNS


def test_hotspot_run_runs_the_busy_idle_rule_no_more_than_pinned(monkeypatch):
    runs = rule_runs(monkeypatch, HOTSPOT, 10)
    assert runs["run"] == HOTSPOT_SWEEP_RULE_RUNS
    assert runs["record_arrival"] <= MAX_HOTSPOT_ARRIVAL_RULE_RUNS


def test_hotspot_run_builds_no_more_backup_tables_than_pinned(monkeypatch):
    builds = 0
    build = engine.compute_backup_table

    def counted(snapshot, busy):
        nonlocal builds
        builds += 1
        return build(snapshot, busy)

    monkeypatch.setattr(engine, "compute_backup_table", counted)
    text = apply_overrides(HOTSPOT.read_text(encoding="utf-8"),
                           ["run.seed=42", "run.duration_s=10"])
    sim = engine.Simulation(loads_scenario(text))
    sim.run()
    assert len(sim.stats.state_log) == 32
    assert builds <= MAX_BACKUP_BUILDS
