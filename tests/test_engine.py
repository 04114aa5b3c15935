"""End-to-end engine runs, pinned to the sha256 of their exports, the
schedule of periodic events, the dispatch order of the three event lanes, the
access rows that forwarding reads, the per-slot backup rows and the FIFO
wait-queue drain.

Each run covers 5 s at seed 42 with the packet trace and the route-table dump
switched on, so every export file is part of the digest. One run covers 10 s
under 4 s routing slots with room for five packets per wait queue: it crosses
two slot rebuilds and an access change, and its drains re-park and drop
packets. One runs the hotspot on an 8 x 7 shell whose inter-plane links close
at 20 degrees of latitude, under 2 s slots: its route dump holds unreachable
pairs, and its wait queues park tens of thousands of packets. One runs the
hotspot with 1 s stats buckets, so its series hold a row per bucket and its
summary means add five buckets' delay sums. A change to the engine or to any
layer it calls that is meant to keep behaviour must keep these digests; a
deliberate behaviour change records the new ones. The six runs whose
horizon (5 s, or 10 s) cuts their one 60 s stats bucket short were re-pinned
when `throughput.csv` came to divide a bucket's deliveries by the time it
covers rather than by the full bucket; no other file of theirs changed.
All seven were re-pinned when a same-plane link's delay became its plane's
exact chord: the last bits of some delays changed, so trace times, delay
CDFs and delay means moved in their last digits, and the order of events
that fall within an ulp of each other changed. In `shell_8x7`, whose wait
queues park tens of thousands of packets, such reorderings also moved its
drops, backup forwards and busy/idle log.

The digests pin the forwarding rule in which a busy satellite is never a
transit hop but can be a packet's last hop: class B traffic bound for a busy
satellite is delivered over the primary or backup table instead of parked.
"""

import gc
import hashlib
import heapq
import tracemalloc
from collections import Counter, deque
from contextlib import closing
from itertools import count
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from leoqsim import engine, stats
from leoqsim.congestion import CongestionLabel
from leoqsim.constellation import OrbitGeometry, build_topology_snapshot
from leoqsim.routing import compute_backup_table
from leoqsim.scenario import apply_overrides, loads_scenario
from leoqsim.scheduling import TrafficClass
from leoqsim.traffic import Packet
from oracles import access_row, access_satellite, index_of
from spooled import read_rows

HOTSPOT_FLOW = "40,-100 -> 50,10 @ 600"
HOTSPOT = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "hotspot.ini"

# Every knob the per-hop pipeline branches on, set away from its default.
KNOBS = {
    "traffic": ["count_uplink_in_rate = false"],
    "scheduler": ["weights = 5 3 1", "buffer_scope = per_node", "buffer_capacity = 20"],
    "congestion": ["window_s = 0.3"],
}

# Slot rebuilds, an access change at 6 s, and wait-queue parks, re-parks and
# overflow drops.
SLOTS = {
    "routing": ["slot_length_s = 4", "wait_queue_capacity = 5"],
    "run": ["duration_s = 10"],
}

# A non-default shell under congestion: 3,528 of its 9,240 dumped pairs are
# unreachable, and 37 notifications give 1,525 backup forwards and 32,900
# parks.
SHELL_8X7 = {
    "constellation": ["planes = 8", "sats_per_plane = 7", "lat_threshold_deg = 20"],
    "routing": ["slot_length_s = 2"],
}

# Stats buckets of 1 s: per-bucket rows in the delay, throughput and hop
# series, and run-wide means summed over five buckets.
BUCKETS = {"run": ["stats_interval_s = 1"]}

SCENARIOS = {
    "baseline": ("", "composite", {}),
    "hotspot": (HOTSPOT_FLOW, "composite", {}),
    "hotspot_pqwrr_only": (HOTSPOT_FLOW, "pqwrr_only", {}),
    "hotspot_knobs": (HOTSPOT_FLOW, "composite", KNOBS),
    "hotspot_slots": (HOTSPOT_FLOW, "composite", SLOTS),
    "shell_8x7": (HOTSPOT_FLOW, "composite", SHELL_8X7),
    "hotspot_buckets": (HOTSPOT_FLOW, "composite", BUCKETS),
}

DIGESTS = {
    "baseline": "51dfc598e0327e515c6f1b7ea9dc922e9fe43299118de125787c12f93b9e8ea2",
    "hotspot": "029dd103e04aa05b563022f5c940d8c870228337dfd9d8368bc8ffff8ab4065e",
    "hotspot_pqwrr_only": "2be1745b7d06ec92509da84f4a5ccebf79e5288e3d2d89b0cb387f47e5e01fd5",
    "hotspot_knobs": "689a6371b8f273f88c98f7618891881d0b334c30cb029da312a86d5f0914a199",
    "hotspot_slots": "09ce536f19502cbedf64b30a4a301014967c86d11e17ec1478976167d56c65f6",
    "shell_8x7": "b36dbeba1600f7c8a2797ef6bf7f03522a172a738bdcc98d942b7301daddbf6e",
    "hotspot_buckets": "14bc540f4c371463a559c26ac07fd6e25447f38a216baeeb307088816b67c91b",
}


def scenario_text(flows: str, strategy: str, knobs: Optional[dict] = None) -> str:
    sections = {
        "traffic": ["background_rate = 800", "grid_file = default"],
        "routing": [f"strategy = {strategy}", "dump_routes = true"],
        "run": ["duration_s = 5", "seed = 42", "trace = true"],
    }
    if flows:
        sections["traffic"].append(f"flows = {flows}")
    text = "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())
    # A knob sets its key, or replaces the value set above.
    return apply_overrides(text, [f"{name}.{line}" for name, lines in (knobs or {}).items()
                                  for line in lines])


def export_digest(out_dir) -> str:
    """sha256 over every exported file's name, length and bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        h.update(f"{p.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (report, [digest of the first run, digest of the second run])"""
    out = {}
    for name, (flows, strategy, knobs) in SCENARIOS.items():
        digests = []
        for k in range(2):
            out_dir = tmp_path_factory.mktemp(f"{name}_{k}")
            cfg = loads_scenario(scenario_text(flows, strategy, knobs))
            with closing(engine.Simulation(cfg).run()) as report:
                stats.export(report, out_dir)
            digests.append(export_digest(out_dir))
        out[name] = (report, digests)
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_export_digest_is_pinned(runs, name):
    _, digests = runs[name]
    assert digests[0] == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_two_runs_export_the_same_bytes(runs, name):
    _, digests = runs[name]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conservation_audit_holds(runs, name):
    report, _ = runs[name]
    assert report.generated_total() > 0
    assert engine.conservation_audit(report)


def test_with_no_buffer_every_packet_that_reaches_a_satellite_drops():
    # Every satellite is idle all run long, yet an arrival with no buffer to
    # enter is tail-dropped, not taken straight into service.
    text = "[scheduler]\nbuffer_capacity = 0\n[run]\nduration_s = 2\nseed = 42\ntrace = true\n"
    sim = engine.Simulation(loads_scenario(text))
    with closing(sim.run()) as report:
        trace = read_rows(report.trace)
    reached = [row[2] for row in trace if row[1] == "generated"]
    dropped = [row[2] for row in trace if row[1] == "drop"]
    assert len(reached) > 1000
    assert len(set(dropped)) == len(dropped) and set(dropped) <= set(reached)
    assert len(reached) - len(dropped) == report.residual  # uplinks still in flight
    by_reason = Counter()
    for (_, reason), n in report.dropped_by_reason.items():
        by_reason[reason] += n
    assert by_reason["buffer_overflow"] == len(dropped)
    assert set(by_reason) <= {"buffer_overflow", "access_blocked"}
    assert report.delivered_total() == 0
    assert engine.conservation_audit(report)
    assert all(pkt is None for pkt in sim.in_service)


def test_hotspot_detours_over_the_backup_table(runs):
    composite, _ = runs["hotspot"]
    pqwrr_only, _ = runs["hotspot_pqwrr_only"]
    assert composite.state_log
    assert composite.backup_forwards > 0
    assert pqwrr_only.backup_forwards == 0


def test_resolver_and_geometry_index_the_generators_terminals():
    # Handle h means the same ground position to the traffic generator, the
    # access resolver and the slant-delay geometry, flow endpoints included.
    # The terminals are the cells that carry demand (the default grid has no
    # weightless continent), then the flow's endpoints.
    sim = engine.Simulation(loads_scenario(scenario_text(HOTSPOT_FLOW, "composite")))
    sim.stats.close()  # never run: its spools stay empty
    terminals = sim.generator.terminals
    flow = sim.cfg.traffic.flows[0]
    grid = sim.generator.grid
    cells = [grid.cell_center(r, c) for r, c in np.argwhere(grid.weights > 0).tolist()]
    assert len(cells) == 56
    assert terminals == cells + [flow.src, flow.dst]
    flow_ends = {(p.src_user, p.dst_user) for _, p in sim.generator.stream(0.1) if p.flow == 0}
    assert flow_ends == {(len(terminals) - 2, len(terminals) - 1)}
    for t in (0.0, 600.0):
        for h, pos in enumerate(terminals):
            sat = sim.resolver.access_index(h, t)
            expected = access_satellite(pos, sim.params, t)
            assert sat == (-1 if expected is None else index_of(sim.params, expected))
            alone = OrbitGeometry(sim.params, [pos])
            assert sim.geometry.slant_delay(h, 7, t) == alone.slant_delay(0, 7, t)
    with pytest.raises(IndexError):
        sim.resolver.access_index(len(terminals), 0.0)
    with pytest.raises(IndexError):
        sim.geometry.slant_delay(len(terminals), 0, 0.0)


# -- periodic events ----------------------------------------------------------

PERIODIC = (engine._EV_ACCESS, engine._EV_SLOT, engine._EV_SWEEP)

# Access refreshes, slots and sweeps coincide at every even second, and the
# horizon is a multiple of none of their periods. The stats interval
# schedules no event.
COINCIDING_SCENARIO = (
    "[traffic]\nbackground_rate = 50\n[routing]\nslot_length_s = 2\n"
    "[run]\nduration_s = 7.3\nstats_interval_s = 1\nstate_check_interval_s = 0.5\n"
)


def record_pops(monkeypatch, observe):
    """Make the engine's heappop call `observe(heap)` before each pop and
    return the list it appends every popped event to."""
    popped = []

    def pop(heap):
        observe(heap)
        event = heapq.heappop(heap)
        popped.append(event)
        return event

    monkeypatch.setattr(engine, "heappop", pop)
    return popped


def test_periodic_events_pop_with_the_keys_of_an_all_up_front_schedule(monkeypatch):
    popped = record_pops(monkeypatch, lambda heap: None)
    engine.Simulation(loads_scenario(COINCIDING_SCENARIO)).run()
    # Every periodic event pushed at t = 0: access refreshes, then slots and
    # sweeps.
    seq = count(1)
    up_front = [(k * period, next(seq), kind)
                for kind, period in zip(PERIODIC, (1.0, 2.0, 0.5))
                for k in range(1, int(7.3 / period) + 1)]
    assert [event[:3] for event in popped if event[2] in PERIODIC] == sorted(up_front)
    # Sources wait in their own lane, never in the heap. The first source
    # kept the seq after the periodic events: the uplink its handler pushes
    # takes the next one.
    assert all(event[2] != engine._EV_SOURCE for event in popped)
    first_uplink = next(event for event in popped if event[2] == engine._EV_UPLINK)
    assert first_uplink[3].id == 0
    assert first_uplink[1] == len(up_front) + 2


def test_the_heap_holds_at_most_one_periodic_event_of_each_kind(monkeypatch):
    # Default periods over an hour: 3,600 access refreshes, 60 slots and 7,200
    # sweeps, and no event per stats bucket; the horizon sentinel is in the
    # heap throughout.
    most = Counter()

    def observe(heap):
        for kind, n in Counter(event[2] for event in heap).items():
            most[kind] = max(most[kind], n)

    popped = record_pops(monkeypatch, observe)
    sim = engine.Simulation(
        loads_scenario("[traffic]\nbackground_rate = 0\n[run]\nduration_s = 3600\n"))
    sim.run()
    assert most == {kind: 1 for kind in PERIODIC + (engine._EV_END,)}
    assert Counter(event[2] for event in popped) == {
        engine._EV_ACCESS: 3600, engine._EV_SLOT: 60, engine._EV_SWEEP: 7200,
        engine._EV_END: 1}
    assert sim.stats.generated_total() == 0


@pytest.mark.parametrize("duration_s, sweeps", [(4.3, 43), (4.4, 44)])
def test_a_periodic_event_at_exactly_the_horizon_runs(monkeypatch, duration_s, sweeps):
    # 43 * 0.1 == 4.3 and 44 * 0.1 == 4.4, though 4.3 / 0.1 rounds down to
    # 42.99... while 4.4 / 0.1 is 44.0.
    popped = record_pops(monkeypatch, lambda heap: None)
    engine.Simulation(loads_scenario(
        f"[traffic]\nbackground_rate = 0\n"
        f"[run]\nduration_s = {duration_s}\nstate_check_interval_s = 0.1\n")).run()
    assert sum(event[2] == engine._EV_SWEEP for event in popped) == sweeps


def test_a_busy_episode_marks_every_bucket_it_spans():
    # From its first notification to the horizon some satellite is busy: one
    # episode, which marks all 29 buckets. Sweeps come only every 5 s, so most
    # buckets hold no notification, and int(a * 0.7 / 0.7) is a - 1 for
    # a = 3, 6, 12, 24 and 29.
    text = (f"[traffic]\nbackground_rate = 800\nflows = {HOTSPOT_FLOW}\n"
            "[run]\nduration_s = 20\nseed = 42\nstats_interval_s = 0.7\n"
            "state_check_interval_s = 5\n")
    report = engine.Simulation(loads_scenario(text)).run()
    assert int(24 * 0.7 / 0.7) == 23
    busy = set()
    for sid, notif in report.state_log:
        if notif.label is CongestionLabel.BUSY:
            busy.add(sid)
        else:
            busy.discard(sid)
        assert busy  # never all idle again
    assert report.state_log[0][1].time < 0.7  # the first Busy falls in bucket 0
    assert report.n_buckets == 29
    assert report.busy_buckets() == list(range(report.n_buckets))


class RecordingDeque(deque):
    """A deque that appends every event popped from its left to `log`."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def popleft(self):
        event = super().popleft()
        self.log.append(event)
        return event


def test_both_lanes_dispatch_in_strictly_increasing_key_order(monkeypatch):
    # A congested run: service completions come from the FIFO lane, every
    # event but those and sources from the heap, and together they run in
    # (time, seq) order.
    dispatched = record_pops(monkeypatch, lambda heap: None)
    sim = engine.Simulation(loads_scenario(scenario_text(HOTSPOT_FLOW, "composite")))
    sim._svc = RecordingDeque(dispatched)
    report = sim.run()
    report.close()
    assert report.state_log
    keys = [event[:2] for event in dispatched]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    kinds = Counter(event[2] for event in dispatched)
    assert kinds[engine._EV_SERVICE] > kinds[engine._EV_LINK] > 0
    assert dispatched[-1][2] == engine._EV_END


def test_traced_events_never_go_back_in_time():
    # All three lanes, sources included, in a congested run of the benchmark's
    # hotspot. A "forward" row carries the time its link frees up, which can
    # lie ahead of the events after it; every other row carries the time of
    # the event that wrote it.
    text = apply_overrides(HOTSPOT.read_text(encoding="utf-8"),
                           ["run.seed=42", "run.duration_s=10", "run.trace=true"])
    with closing(engine.Simulation(loads_scenario(text)).run()) as report:
        times = [row[0] for row in read_rows(report.trace) if row[1] != "forward"]
    assert report.state_log
    assert len(times) > 150_000
    assert all(a <= b for a, b in zip(times, times[1:]))


def traced_peak(horizon_s: float, out_dir) -> int:
    """tracemalloc's peak, in bytes, over a traced and route-dumped run at
    50 packets/s and its export."""
    cfg = loads_scenario("[traffic]\nbackground_rate = 50\n[routing]\ndump_routes = true\n"
                         f"[run]\nduration_s = {horizon_s}\ntrace = true\n")
    gc.collect()
    tracemalloc.start()
    try:
        with closing(engine.Simulation(cfg).run()) as report:
            stats.export(report, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_traced_run_holds_no_rows(tmp_path):
    # Trace and route-dump lines go to spool files as they happen, so ten
    # times the horizon (2,989 packets and 42,054 trace lines against 271 and
    # 3,762) peaks within 512 KiB of the short run: measured 0.91 MB at 6 s
    # and 1.12 MB at 60 s, the growth being mostly delay samples and arrival
    # chunks. An engine that held the rows as tuples peaked at 6.6 MB against
    # 1.7 MB. Costs about 1.8 s.
    short = traced_peak(6.0, tmp_path / "short")
    long = traced_peak(60.0, tmp_path / "long")
    assert len(read_rows(tmp_path / "long" / "packet_trace.csv")) > 9 * len(
        read_rows(tmp_path / "short" / "packet_trace.csv"))
    assert long <= short + 2**19


def test_every_forwarding_decision_reads_the_access_row_of_its_time(monkeypatch):
    # With 1 s quanta, time t falls in quantum int(t). The run's own decisions
    # are observed: a packet leaves a satellite after its "service" trace row,
    # or when the loop takes it off the released lane, at the time of the
    # latest heap event (the arrival, sweep or slot that released it). A call
    # of the forwarding rule routes the latest such packet, and a downlink
    # writes a "downlink" row. Each must name the satellite that the oracle's
    # row of its quantum gives the packet's destination, and a rule call must
    # read the tables in force: the rows of the latest slot rebuild and busy
    # set, the backup rows being the cache entry of the very flags it is
    # given. In 10 s one terminal changes its access satellite, at 6 s, and
    # 4 s slots rebuild the tables twice.
    text = apply_overrides(scenario_text(HOTSPOT_FLOW, "composite"),
                           ["run.duration_s=10", "routing.slot_length_s=4"])
    sim = engine.Simulation(loads_scenario(text))
    rows = {}

    def access_sat(t, terminal):
        q = int(t)
        if q not in rows:
            rows[q] = access_row(sim.params, sim.generator.terminals, float(q))
        return rows[q][terminal]

    routed = []  # (time, packet, satellite, released) of each packet leaving a satellite
    decisions = []
    moved = 0  # decisions for a terminal whose access satellite has changed
    released = 0  # rule calls for released packets
    tables = []  # (primary, backup) rows in force
    now = 0.0  # time of the latest heap event
    trace, rebuild, notify = sim._trace, sim._rebuild_for_slot, sim._notify
    decide = engine.decide_next_index

    def check(t, pkt, dst):
        nonlocal moved
        decisions.append(dst == access_sat(t, pkt.dst_user))
        moved += dst != access_sat(0.0, pkt.dst_user)

    def tracing(t, event, pkt, sat):
        if event == "service":
            routed.append((t, pkt, sat, False))
        elif event == "downlink":
            check(t, pkt, sat)
        trace(t, event, pkt, sat)

    def pop(heap):
        nonlocal now
        event = heapq.heappop(heap)
        now = event[0]
        return event

    class ReleasedLane(deque):
        def popleft(self):
            sat, pkt = super().popleft()
            routed.append((now, pkt, sat, True))
            return sat, pkt

    def rebuilding(t, slot):
        tables.append(rebuild(t, slot))
        return tables[-1]

    def notifying(notifs, lane):
        tables.append((tables[-1][0], notify(notifs, lane)))
        return tables[-1][1]

    def checked_decide(tos, here, dst, primary, backup, flags, detoured):
        nonlocal released
        t, pkt, sat, from_lane = routed[-1]
        assert (here, tos) == (sat, pkt.tos)
        assert primary is tables[-1][0] and backup is tables[-1][1]
        assert flags is sim.busy_flags and backup is sim._backups[tuple(flags)]
        check(t, pkt, dst)
        released += from_lane
        return decide(tos, here, dst, primary, backup, flags, detoured)

    sim._trace = tracing
    sim._rebuild_for_slot = rebuilding
    sim._notify = notifying
    monkeypatch.setattr(engine, "heappop", pop)
    monkeypatch.setattr(engine, "deque", ReleasedLane)  # built: only run()'s lane is new
    monkeypatch.setattr(engine, "decide_next_index", checked_decide)
    sim.run().close()
    assert len(decisions) > 20_000
    assert all(decisions)
    assert moved
    assert released
    assert len(tables) > 3 and len({id(primary) for primary, _ in tables}) == 3
    assert len({id(backup) for _, backup in tables}) > 3


# -- backup rows --------------------------------------------------------------


def record_backup_builds(monkeypatch):
    """Make the engine's compute_backup_table append (slot, busy flags) to the
    returned list on each call. Each slot builds one snapshot, so the slot
    is the number of snapshots built before the latest."""
    builds, snapshots = [], []

    def build_snapshot(params, t):
        snapshots.append(t)
        return build_topology_snapshot(params, t)

    def build(snapshot, busy):
        builds.append((len(snapshots) - 1, tuple(busy)))
        return compute_backup_table(snapshot, busy)

    monkeypatch.setattr(engine, "build_topology_snapshot", build_snapshot)
    monkeypatch.setattr(engine, "compute_backup_table", build)
    return builds


def test_each_busy_set_is_built_once_per_slot(monkeypatch):
    # One 60 s slot: the hotspot's 15 busy/idle notifications meet 10
    # distinct busy sets, and the rows kept for each are its backup table's.
    # The slot starts its cache with the all-idle set, whose rows are the
    # primary rows themselves and equal its backup table's.
    builds = record_backup_builds(monkeypatch)
    sim = engine.Simulation(loads_scenario(scenario_text(HOTSPOT_FLOW, "composite")))
    report = sim.run()
    report.close()
    assert len(report.state_log) == 15
    assert len(builds) == 10
    idle = (False,) * sim.n
    assert [idle] + [flags for _, flags in builds] == list(sim._backups)
    for flags, rows in sim._backups.items():
        assert rows == compute_backup_table(sim.snapshot, list(flags))[0]


def test_a_new_slot_builds_its_busy_sets_again(monkeypatch):
    # Rows hold for one snapshot only: a busy set met in slot 0 is built again
    # on slot 1's snapshot.
    builds = record_backup_builds(monkeypatch)
    knobs = {"routing": ["slot_length_s = 1"]}
    cfg = loads_scenario(scenario_text(HOTSPOT_FLOW, "composite", knobs))
    engine.Simulation(cfg).run().close()
    assert len(set(builds)) == len(builds)
    assert {f for slot, f in builds if slot == 0} & {f for slot, f in builds if slot == 1}


# -- wait-queue drains --------------------------------------------------------

HERE = 20  # every neighbour busy: class B traffic waits here unless bound for one


def ringed_simulation(overrides):
    """A traced simulation with no traffic, with HERE's neighbours busy from
    the start; and the set of those neighbours."""
    text = "[traffic]\nbackground_rate = 0\n[run]\ntrace = true\n"
    sim = engine.Simulation(loads_scenario(apply_overrides(text, overrides)))
    ring = {j for j, _ in build_topology_snapshot(sim.params, 0.0)[HERE]}
    for i in ring:
        sim.busy_flags[i] = True
    return sim, ring


def terminal_served(sim, quanta, wanted):
    """The first terminal whose access satellite, the same in every quantum
    of `quanta`, satisfies `wanted`."""
    rows = [sim.resolver.row(k) for k in quanta]
    return next(u for u, sat in enumerate(rows[0])
                if sat >= 0 and wanted(sat) and all(row[u] == sat for row in rows))


def park(sim, parked):
    """Put `parked` packets in the wait queues: (satellite, class, destination
    terminal, detoured), packet ids in list order."""
    for pkt_id, (sat, tos, dst_user, detoured) in enumerate(parked):
        pkt = Packet(pkt_id, tos, 0, dst_user, 0.0)
        pkt.detoured = detoured
        sim.wait_queues[sat].append(pkt)


def test_a_slot_drain_at_a_quantum_boundary_reads_that_quantums_row():
    # 3 * 0.7 is the third slot boundary and the third access quantum, though
    # int(3 * 0.7 / 0.7) == 2: a time is in the largest quantum k with
    # k * 0.7 <= t, in the engine's refreshes and in `access_index` alike. A
    # class B packet parked behind HERE's busy ring is released and parked
    # again at each slot boundary, and each time it reads the row of that
    # boundary's quantum.
    sim, ring = ringed_simulation(
        ["routing.slot_length_s=0.7", "run.duration_s=2.5", "run.access_refresh_s=0.7"])
    far = terminal_served(sim, (1, 2, 3), lambda sat: sat != HERE and sat not in ring)
    park(sim, [(HERE, TrafficClass.B1, far, False)])
    solved, reads = [], []
    row = sim.resolver.row

    class Row(list):
        def __getitem__(self, terminal):
            reads.append((self.quantum, terminal))
            return super().__getitem__(terminal)

    def recording_row(k):
        solved.append(k)
        out = Row(row(k))
        out.quantum = k
        return out

    sim.resolver.row = recording_row
    with closing(sim.run()) as report:
        trace = read_rows(report.trace)
    assert int(3 * 0.7 / 0.7) == 2
    assert reads == [(1, far), (2, far), (3, far)]
    assert [row[:3] for row in trace] == [
        (0.7, "wait", 0), (2 * 0.7, "wait", 0), (3 * 0.7, "wait", 0)]
    solved.clear()
    sim.resolver.access_index(0, 3 * 0.7)
    assert solved == [3]


def test_drain_keeps_fifo_order_and_counts_every_repark():
    # At HERE, class B traffic bound past the busy ring waits again; class A
    # traffic and class B traffic whose destination is a busy neighbour leave.
    # Packets parked before the run are released by 1 s slots at 1 s and 2 s:
    # in FIFO order per satellite, satellites in index order.
    sim, ring = ringed_simulation(["routing.slot_length_s=1", "run.duration_s=2.5"])
    far = terminal_served(sim, (1, 2), lambda sat: sat != HERE and sat not in ring)
    near = terminal_served(sim, (1, 2), lambda sat: sat in ring)
    other = 0  # an idle satellite before HERE, away from far's access satellite
    assert other < HERE and other not in ring and other != sim.resolver.row(1)[far]
    A, B2, B1, B0 = TrafficClass.A, TrafficClass.B2, TrafficClass.B1, TrafficClass.B0
    park(sim, [(HERE, B1, far, False), (HERE, A, far, False), (HERE, B0, far, True),
               (HERE, B2, near, False), (HERE, B1, far, False), (HERE, B0, near, True),
               (other, A, far, False)])
    with closing(sim.run()) as report:
        trace = read_rows(report.trace)
    assert [p.id for p in sim.wait_queues[HERE]] == [0, 2, 4]
    assert report.wait_enqueues == 6
    # Every packet leaves its satellite by a "wait" or a first-hop "forward" row.
    first = [row[:3] for row in trace if row[1] == "wait" or row[5] == 0]
    assert [(event, pkt_id) for _, event, pkt_id in first] == (
        [("forward", 6), ("wait", 0), ("forward", 1), ("wait", 2), ("forward", 3),
         ("wait", 4), ("forward", 5), ("wait", 0), ("wait", 2), ("wait", 4)])
    assert [t for t, event, _ in first if event == "wait"] == [1.0] * 3 + [2.0] * 3
    assert report.backup_forwards == 1  # the detoured packet's last hop
    assert all(not pending for i, pending in enumerate(sim.wait_queues) if i != HERE)
