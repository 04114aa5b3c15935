"""The per-hop layers against their references in `oracles`: busy/idle
classification and PQWRR queue selection must give the same labels, rates,
notifications and service order as the straightforward versions, and the
access resolver the same access satellites."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoqsim.congestion import CongestionConfig, CongestionLabel, NodeCongestionState
from leoqsim.constellation import AccessResolver, ConstellationParams, GeoPosition
from leoqsim.scheduling import ALL_CLASSES, PqwrrScheduler, SchedulerConfig, TrafficClass
from leoqsim.traffic import ArrivalGenerator, DemandGrid, FlowSpec
from oracles import CongestionReference, PqwrrReference, access_row
from test_scheduling import pkt

GRID_PATH = Path(__file__).resolve().parents[1] / "src" / "leoqsim" / "data" / "default_grid.txt"

# (alpha, beta, window_s). In all but the last, alpha * window_s and
# beta * window_s are whole arrival counts, so a window can hold exactly the
# threshold count; 0.3 s is the window whose quotients are not exact.
CONGESTION_CONFIGS = [
    CongestionConfig(alpha=250.0, beta=450.0, window_s=1.0),
    CongestionConfig(alpha=3.0, beta=5.0, window_s=2.0),
    CongestionConfig(alpha=2.5, beta=4.5, window_s=2.0),
    CongestionConfig(alpha=10.0, beta=20.0, window_s=0.5),
    CongestionConfig(alpha=250.0, beta=450.0, window_s=0.3),
]


def observed(state):
    return state.rate, state.label, state.last_notified


def same_notification(got, want):
    """Package notifications name a satellite; the reference's name none."""
    if want is None:
        return got is None
    return got is not None and got._replace(satellite=None) == want


@pytest.mark.parametrize("cfg", CONGESTION_CONFIGS)
def test_classification_matches_the_reference_at_every_count(cfg):
    # Arrivals all at one instant, evaluated at that instant after each one
    # with either label last notified: every count from idle to well past
    # busy, the threshold counts included.
    state, ref = NodeCongestionState(), CongestionReference()
    for _ in range(int(3 * cfg.beta * cfg.window_s) + 2):
        for notified in (CongestionLabel.IDLE, CongestionLabel.BUSY):
            state.last_notified = ref.last_notified = notified
            assert same_notification(state.evaluate(1.0, cfg), ref.evaluate(1.0, cfg))
            assert observed(state) == observed(ref)
        assert same_notification(state.record_arrival(1.0, cfg), ref.record_arrival(1.0, cfg))
        assert observed(state) == observed(ref)


# One step of a congestion trace: (time advance in 1/16 s, arrival or evaluation).
STEPS = st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=300)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=st.sampled_from(CONGESTION_CONFIGS), steps=STEPS)
def test_congestion_traces_match_the_reference(cfg, steps):
    state, ref = NodeCongestionState(), CongestionReference()
    t = 0.0
    for advance, arrival in steps:
        t += advance / 16
        if arrival:
            got, want = state.record_arrival(t, cfg), ref.record_arrival(t, cfg)
        else:
            got, want = state.evaluate(t, cfg), ref.evaluate(t, cfg)
        assert same_notification(got, want)
        assert observed(state) == observed(ref)


SCHEDULER_CONFIGS = st.builds(
    SchedulerConfig,
    weights=st.sampled_from([(4, 2, 1), (5, 3, 1), (3, 2, 1), (9, 4, 2)]),
    buffer_capacity=st.integers(0, 6),
    buffer_scope=st.sampled_from(["per_queue", "per_node"]),
)
# One scheduler operation: enqueue a packet of that class, or dequeue (None).
OPERATIONS = st.lists(st.one_of(st.none(), st.sampled_from(ALL_CLASSES)), max_size=300)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=SCHEDULER_CONFIGS, ops=OPERATIONS)
def test_service_order_matches_the_reference(cfg, ops):
    sched, ref = PqwrrScheduler(cfg), PqwrrReference(cfg)
    for k, tos in enumerate(ops):
        if tos is None:
            assert sched.dequeue() is ref.dequeue()  # dequeues on empty included
        else:
            p = pkt(tos, tag=k)
            assert sched.enqueue(p, float(k)) == ref.enqueue(p, float(k))
        assert sched.size == ref.size



# The default 6x11 shell, the 24x40 shell of the large_shell workload, and a
# sparse shell whose 30-degree mask leaves some terminals without access.
ACCESS_SHELLS = {
    "default": ConstellationParams(),
    "large_shell": ConstellationParams(planes=24, sats_per_plane=40, phase_offset_deg=4.5),
    "sparse_high_mask": ConstellationParams(planes=5, sats_per_plane=9, min_elevation_deg=30.0),
}


@pytest.mark.parametrize("shell", sorted(ACCESS_SHELLS))
def test_access_rows_match_the_reference_at_every_quantum(shell):
    # Terminals as the engine builds them: the grid cell centres, then the
    # endpoints of a foreground flow.
    params = ACCESS_SHELLS[shell]
    flow = FlowSpec(GeoPosition(40.0, -100.0), GeoPosition(50.0, 10.0), 600.0)
    terminals = ArrivalGenerator([flow], DemandGrid.load(GRID_PATH), 800.0,
                                 (0.25, 0.25, 0.25, 0.25), 42).terminals
    resolver = AccessResolver(params, terminals, quantum_s=1.0)
    blocked = 0
    for q in range(121):
        row = [resolver.access_index(h, float(q)) for h in range(len(terminals))]
        assert row == access_row(params, terminals, float(q)), q
        blocked += row.count(-1)
    assert (blocked > 0) == (shell == "sparse_high_mask")
