"""End-to-end engine runs, pinned to the sha256 of their exports, and the
wait-queue drain against a packet-by-packet reference.

Each run covers 5 s at seed 42 with the packet trace and the route-table dump
switched on, so every export file is part of the digest. A change to the
engine or to any layer it calls that is meant to keep behaviour must keep
these digests; a deliberate behaviour change records the new ones.
"""

import hashlib
from pathlib import Path

import pytest

from leoqsim import engine, stats
from leoqsim.routing import compute_backup_table, decide_next_index
from leoqsim.scenario import loads_scenario
from leoqsim.scheduling import TrafficClass
from leoqsim.traffic import Packet

HOTSPOT_FLOW = "40,-100 -> 50,10 @ 600"

SCENARIOS = {
    "baseline": ("", "composite"),
    "hotspot": (HOTSPOT_FLOW, "composite"),
    "hotspot_pqwrr_only": (HOTSPOT_FLOW, "pqwrr_only"),
}

DIGESTS = {
    "baseline": "86fef41d092b29328c35c8a1d9b67085a6135c0dcb63a636391758e484d823cf",
    "hotspot": "177ce03f24e03c112b0b1ae8f5f840518033f4b5fbbee41291fd8b00bd52e9fb",
    "hotspot_pqwrr_only": "c36ad117207acbdbb1c9a3075cbb95f37863a40a2e97cd380cf1a725f5a5ddb4",
}


def scenario_text(flows: str, strategy: str) -> str:
    lines = ["[traffic]", "background_rate = 800", "grid_file = default"]
    if flows:
        lines.append(f"flows = {flows}")
    lines += [
        "[routing]", f"strategy = {strategy}", "dump_routes = true",
        "[run]", "duration_s = 5", "seed = 42", "trace = true",
    ]
    return "\n".join(lines) + "\n"


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
    for name, (flows, strategy) in SCENARIOS.items():
        digests = []
        for k in range(2):
            report = engine.Simulation(loads_scenario(scenario_text(flows, strategy))).run()
            out_dir = tmp_path_factory.mktemp(f"{name}_{k}")
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


def test_hotspot_detours_over_the_backup_table(runs):
    composite, _ = runs["hotspot"]
    pqwrr_only, _ = runs["hotspot_pqwrr_only"]
    assert composite.state_log
    assert composite.backup_forwards > 0
    assert pqwrr_only.backup_forwards == 0


# -- wait-queue drains --------------------------------------------------------

DRAIN_SCENARIO = "[traffic]\nbackground_rate = 0\n[run]\nduration_s = 5\ntrace = true\n"
HERE = 20  # every neighbour busy: class B traffic waits here
THERE = 22  # one busy neighbour: class B traffic detours or waits by destination


def busy_drain_setup():
    """A traced simulation at t = 0 with HERE surrounded by busy satellites and
    THERE's primary hop toward some destinations busy; the backup table is
    built for that busy set."""
    sim = engine.Simulation(loads_scenario(DRAIN_SCENARIO))
    sim._rebuild_for_slot(0.0, 0)
    busy = {j for j, _ in sim.snapshot.neighbor_table[HERE]}
    busy.add(sim.snapshot.neighbor_table[THERE][0][0])
    for i in busy:
        sim.busy_flags[i] = True
    sim.busy_count = len(busy)
    sim.backup = compute_backup_table(sim.snapshot, {sim.sids[i] for i in busy})
    return sim


def moves(sim, sat, user, detoured):
    """Whether a class B1 packet parked at `sat` for `user` would leave it."""
    dst = sim.resolver.access_index(user, 0.0)
    if dst < 0 or dst == sat:
        return dst == sat
    nxt, _ = decide_next_index(
        TrafficClass.B1, sat, dst, sim.primary, sim.backup, sim.busy_flags, detoured
    )
    return nxt >= 0


def first_user(sim, wanted):
    """The lowest terminal handle for which `wanted(user)` holds."""
    return next(u for u in range(len(sim.generator.terminals)) if wanted(u))


@pytest.fixture(scope="module")
def users():
    """Terminals whose class B packets at THERE: wait (W), move (M), or wait
    only once detoured (D, bound for a busy satellite behind an idle hop)."""
    sim = busy_drain_setup()
    return {
        "W": first_user(sim, lambda u: not moves(sim, THERE, u, False)),
        "M": first_user(sim, lambda u: moves(sim, THERE, u, False)),
        "D": first_user(sim, lambda u: moves(sim, THERE, u, False)
                        and not moves(sim, THERE, u, True)),
    }


def parked_simulation(parked):
    """`busy_drain_setup` with `parked` packets in its wait queues: (satellite,
    class, destination terminal, detoured), packet ids in list order."""
    sim = busy_drain_setup()
    for pkt_id, (sat, tos, dst_user, detoured) in enumerate(parked):
        pkt = Packet(pkt_id, tos, 0, dst_user, 0.0)
        pkt.detoured = detoured
        sim.nodes[sat].wait_queue.append(pkt)
    return sim


def drain_packet_by_packet(sim, t):
    """The drain's reference: route every parked packet on its own."""
    for i, node in enumerate(sim.nodes):
        pending = list(node.wait_queue)
        node.wait_queue.clear()
        for pkt in pending:
            sim._route(t, pkt, i)


def observable(sim):
    """What a drain leaves behind, with packets named by id."""
    def name(x):
        return x.id if isinstance(x, Packet) else x

    return {
        "queues": [[p.id for p in node.wait_queue] for node in sim.nodes],
        "events": [tuple(map(name, ev)) for ev in sim._heap],
        "trace": sim.trace,
        "wait_enqueues": sim.stats.wait_enqueues,
        "backup_forwards": sim.stats.backup_forwards,
        "channels": [node.chan_free for node in sim.nodes],
    }


def test_drain_decides_once_per_group_and_keeps_fifo_order(users, monkeypatch):
    B1, B0 = TrafficClass.B1, TrafficClass.B0
    u, v = users["M"], users["D"]
    # Two groups at HERE, interleaved: (u, class B, not detoured) and
    # (v, class B, detoured).
    parked = [(HERE, B1, u, False), (HERE, B0, v, True), (HERE, B0, u, False),
              (HERE, B1, v, True), (HERE, B1, u, False)]
    reference = parked_simulation(parked)
    drain_packet_by_packet(reference, 0.0)

    sim = parked_simulation(parked)
    decide = engine.decide_next_index
    calls = []

    def counting(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(engine, "decide_next_index", counting)
    sim._drain_wait_queues(0.0)

    assert len(calls) == 2
    got = observable(sim)
    assert got["queues"][HERE] == [0, 1, 2, 3, 4]
    assert got["wait_enqueues"] == 5
    assert [row[1:3] for row in got["trace"]] == [("wait", k) for k in range(5)]
    assert got == observable(reference)


def test_drain_matches_routing_packet_by_packet(users):
    # At THERE each group key field decides: a waiting packet is followed by
    # one that moves and differs only in destination, in class A, or in not
    # being detoured. HERE holds waiting class B and leaving class A packets.
    A, B2, B1, B0 = TrafficClass.A, TrafficClass.B2, TrafficClass.B1, TrafficClass.B0
    w, m, d = users["W"], users["M"], users["D"]
    parked = [
        (HERE, B1, m, False), (HERE, A, m, False), (HERE, B2, w, False),
        (HERE, A, d, False), (HERE, B1, m, False), (HERE, B0, d, True),
        (THERE, B1, w, False), (THERE, B2, m, False), (THERE, A, w, False),
        (THERE, B0, d, True), (THERE, B1, d, False), (THERE, B2, w, False),
    ]
    reference = parked_simulation(parked)
    drain_packet_by_packet(reference, 0.0)
    sim = parked_simulation(parked)
    sim._drain_wait_queues(0.0)

    got = observable(sim)
    assert got == observable(reference)
    assert got["queues"][HERE] == [0, 2, 4, 5]
    assert got["queues"][THERE] == [6, 9, 11]
