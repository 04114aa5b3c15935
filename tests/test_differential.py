"""The per-hop layers against their references in `oracles`: busy/idle
classification and PQWRR queue selection must give the same labels, rates,
notifications, service order and round-robin credits as the straightforward
versions (a packet started at an idle scheduler included), the
access resolver the same access satellites, and the arrival generator the
same packets at the same times."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoqsim.congestion import CongestionConfig, CongestionLabel, NodeCongestionState
from leoqsim.constellation import AccessResolver, ConstellationParams, GeoPosition
from leoqsim.scheduling import ALL_CLASSES, PqwrrScheduler, SchedulerConfig, TrafficClass
from leoqsim.traffic import _BLOCK, ArrivalGenerator, Continent, DemandGrid, FlowSpec, _uniforms
from oracles import CongestionReference, PqwrrReference, access_row, arrival_stream
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
# One scheduler operation: enqueue a packet of that class, dequeue (None), or
# start a packet of that class at an idle scheduler (("start", class)).
OPERATIONS = st.lists(
    st.one_of(st.none(), st.sampled_from(ALL_CLASSES),
              st.tuples(st.just("start"), st.sampled_from(ALL_CLASSES))),
    max_size=300,
)


def credit_vector(sched):
    """The per-queue credits that the scheduler's round-robin cursor stands for."""
    k, c = sched._k, sched._c
    return [0] * k + [c] + list(sched._wlist[k + 1:])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=SCHEDULER_CONFIGS, ops=OPERATIONS)
def test_service_order_matches_the_reference(cfg, ops):
    sched, ref = PqwrrScheduler(cfg), PqwrrReference(cfg)
    for k, op in enumerate(ops):
        if op is None:
            assert sched.dequeue() is ref.dequeue()  # dequeues on empty included
        elif isinstance(op, tuple):
            # The engine starts a packet only at an empty scheduler with a
            # buffer. Drained without an empty dequeue, so the round's credits
            # stay as they were; the reference enqueues and dequeues.
            if cfg.buffer_capacity == 0:
                continue
            while sched.size:
                assert sched.dequeue() is ref.dequeue()
            p = pkt(op[1], tag=k)
            sched.start(p)
            assert ref.enqueue(p, float(k)) is None
            assert ref.dequeue() is p
        else:
            p = pkt(op, tag=k)
            assert sched.enqueue(p, float(k)) == ref.enqueue(p, float(k))
        assert sched.size == ref.size
        assert credit_vector(sched) == ref._credits



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


def arrivals(stream):
    return [(t, p.id, p.tos, p.src_user, p.dst_user, p.flow) for t, p in stream]


def assert_same_stream(gen, horizon):
    got = arrivals(gen.stream(horizon))
    assert got == arrivals(arrival_stream(gen, horizon))
    return got


def test_block_draws_equal_random_calls():
    for seed, n in ((0, 1), (42, 5 * _BLOCK), (2**32 - 1, 3)):
        rng, ref = random.Random(seed), random.Random(seed)
        assert _uniforms(rng, n).tolist() == [ref.random() for _ in range(n)]
        assert rng.random() == ref.random()  # the generator is left where random() leaves it


FLOW_ENDS = [
    (GeoPosition(40.0, -100.0), GeoPosition(50.0, 10.0)),
    (GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0)),
    (GeoPosition(0.0, 0.0), GeoPosition(-33.9, 151.2)),
]
RATES = st.sampled_from([0.0, 0.5, 37.5, 600.0, 2500.0])
# Integer weights, so mixes with zero entries such as (0, 0, 1, 0) come up.
CLASS_MIXES = st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any).map(
    lambda w: tuple(x / sum(w) for x in w))


@pytest.fixture(scope="module")
def grid():
    return DemandGrid.load(GRID_PATH)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
       background=RATES, flow_rates=st.lists(RATES, max_size=3), mix=CLASS_MIXES,
       horizon=st.floats(0.1, 2.5))
def test_arrival_stream_matches_the_reference(grid, seed, background, flow_rates, mix, horizon):
    flows = [FlowSpec(src, dst, rate) for (src, dst), rate in zip(FLOW_ENDS, flow_rates)]
    assert_same_stream(ArrivalGenerator(flows, grid, background, mix, seed), horizon)


def test_arrival_stream_matches_the_reference_with_a_zero_rate_flow(grid):
    flows = [FlowSpec(*FLOW_ENDS[0], 0.0), FlowSpec(*FLOW_ENDS[1], 600.0)]
    got = assert_same_stream(ArrivalGenerator(flows, grid, 800.0, (0.0, 0.0, 1.0, 0.0), 3), 5.0)
    assert {flow for *_, flow in got} == {None, 1}


def test_arrival_stream_matches_the_reference_on_a_weightless_continent(grid):
    # Oceania carries no demand: no packet starts there, and packets bound
    # there pick its cells from the uniform table.
    weights = grid.weights.copy()
    weights[grid.continents == Continent.OCEANIA] = 0.0
    gen = ArrivalGenerator([], DemandGrid(weights, grid.continents), 3000.0,
                           (0.25, 0.25, 0.25, 0.25), 11)
    got = assert_same_stream(gen, 10.0)
    oceania = set(np.flatnonzero(grid.continents.ravel() == Continent.OCEANIA).tolist())
    assert not {row[3] for row in got} & oceania  # src_user
    assert {row[4] for row in got} >= oceania  # dst_user


@pytest.mark.parametrize("last", [_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 1500])
def test_arrival_stream_ends_at_a_horizon_equal_to_an_arrival(grid, last):
    # A horizon equal to an arrival time includes that arrival (`<=`). With a
    # single stream, the arrival at index _BLOCK - 1 ends the first block, so
    # that horizon ends the stream exactly on a block boundary and the next
    # block is never used; index _BLOCK is the first arrival of the second.
    gen = ArrivalGenerator([], grid, 800.0, (0.25, 0.25, 0.25, 0.25), 42)
    horizon = arrivals(arrival_stream(gen, 10.0))[last][0]
    got = assert_same_stream(gen, horizon)
    assert len(got) == last + 1 and got[-1][0] == horizon
