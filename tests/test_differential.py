"""The per-hop layers against their references in `oracles`: busy/idle
classification and PQWRR queue selection must give the same notifications,
labels, rates, service order and round-robin credits as the straightforward
versions (a packet started at an idle scheduler included), the access
resolver the same access rows, the demand grid's terminal handles the cells
the scalar samplers pick, and the arrival generator the same packets at the
same times."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoqsim.congestion import CongestionConfig, CongestionLabel, NodeCongestionState
from leoqsim.constellation import (
    AccessResolver,
    ConstellationParams,
    GeoPosition,
    periods_elapsed,
)
from leoqsim.scheduling import ALL_CLASSES, PqwrrScheduler, SchedulerConfig, TrafficClass
from leoqsim.traffic import (
    _BLOCK,
    CONTINENT_CODES,
    ArrivalGenerator,
    DemandGrid,
    FlowSpec,
    _uniforms,
)
from oracles import (
    CongestionReference,
    PqwrrReference,
    access_row,
    arrival_stream,
    sample_cell_in_continent,
    sample_destination,
    sample_source_cell,
    terminal_cells,
)
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


@pytest.mark.parametrize("cfg", CONGESTION_CONFIGS)
def test_classification_matches_the_reference_at_every_count(cfg):
    # Arrivals all at one instant, evaluated at that instant after each one
    # with either label last notified: every count from idle to well past
    # busy, the threshold counts included. A rule run's label leaves the
    # node only in a notification: a Busy one from a node last notified
    # Idle, an Idle one from a node last notified Busy, so the pair of runs
    # pins the label, and each notification the rate.
    state, ref = NodeCongestionState(), CongestionReference()
    for _ in range(int(3 * cfg.beta * cfg.window_s) + 2):
        for notified in (CongestionLabel.IDLE, CongestionLabel.BUSY):
            state.last_notified = ref.last_notified = notified
            assert state.evaluate(1.0, cfg) == ref.evaluate(1.0, cfg)
            assert state.last_notified is ref.last_notified
        assert state.record_arrival(1.0, cfg) == ref.record_arrival(1.0, cfg)
        assert state.last_notified is ref.last_notified


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
            assert state.record_arrival(t, cfg) == ref.record_arrival(t, cfg)
            assert state.last_notified is ref.last_notified
        else:
            assert state.evaluate(t, cfg) == ref.evaluate(t, cfg)
            assert state.last_notified is ref.last_notified


def largest_count_not_above_beta(cfg):
    """The largest count n with n / window_s <= beta, by trying each count."""
    n = 0
    while (n + 1) / cfg.window_s <= cfg.beta:
        n += 1
    return n


def smallest_count_not_below_alpha(cfg):
    """The smallest count m >= 1 with m / window_s >= alpha, by trying each count."""
    m = 1
    while m / cfg.window_s < cfg.alpha:
        m += 1
    return m


class CountedState(NodeCongestionState):
    """A node that counts its rule runs, the ones its arrivals start included."""

    __slots__ = ("runs",)

    def __init__(self):
        super().__init__()
        self.runs = 0

    def evaluate(self, t, cfg):
        self.runs += 1
        return super().evaluate(t, cfg)


# One step of an arrivals-only trace: (time advance in sixteenths of the
# window, arrivals at that time in sixteenths of the busy count, edge). Around
# 100 steps hold several windows' worth of arrivals, so stale times pile up
# past the limit, and the mean load sits near the transition band. An edge of
# k moves the time, when that is later, to k ulps from the m-th most recent
# time of the last rule run plus window_s: both sides of the rounding
# boundary of the Busy bound, at times that are no multiple of a sixteenth.
BURSTS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 8), st.none() | st.integers(-2, 2)),
    min_size=40, max_size=120,
)


def ulps_from(x, k):
    """x moved k ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cfg=st.sampled_from(CONGESTION_CONFIGS), steps=BURSTS)
def test_arrivals_alone_run_the_rule_only_where_a_crossing_is_possible(cfg, steps):
    # No sweep in between: the node runs the rule on an arrival exactly when
    # it is the first (which sets the bounds), when an Idle-notified node then
    # holds more than the largest count not above beta, or when fewer than m
    # of the times held at a Busy-notified node's last rule run are above the
    # rule's cutoff, m being the smallest count not below alpha. It notifies
    # as the reference, which runs the rule on every arrival.
    limit = largest_count_not_above_beta(cfg)
    m = smallest_count_not_below_alpha(cfg)
    unit = max(1, (limit + 1) // 16)
    state, ref = CountedState(), CongestionReference()
    window = []  # the times held after the node's last rule run
    t = 0.0
    for advance, burst, edge in steps:
        t += advance * cfg.window_s / 16
        if edge is not None and len(window) >= m:
            t = max(t, ulps_from(window[-m] + cfg.window_s, edge))
        for _ in range(burst * unit):
            cutoff = t - cfg.window_s
            if state.runs == 0:
                must_run = True
            elif state.last_notified is CongestionLabel.BUSY:
                must_run = sum(x > cutoff for x in window) < m
            else:
                must_run = len(state._arrivals) + 1 > limit
            runs = state.runs
            assert state.record_arrival(t, cfg) == ref.record_arrival(t, cfg)
            assert state.last_notified is ref.last_notified
            assert state.runs - runs == must_run
            if must_run:
                window = list(ref._arrivals)
            busy = state.last_notified is CongestionLabel.BUSY
            assert state.limit == (-1 if busy else limit)
            assert state.keep == (window[-m] if busy and len(window) >= m else -math.inf)


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
            assert ref.enqueue(p) is True
            assert ref.dequeue() is p
        else:
            p = pkt(op, tag=k)
            assert sched.enqueue(p) is ref.enqueue(p)
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
    # Every grid cell centre, then the endpoints of a foreground flow: a
    # superset of the terminals the engine solves for.
    params = ACCESS_SHELLS[shell]
    terminals = [DemandGrid.cell_center(r, c) for r in range(12) for c in range(24)]
    terminals += [GeoPosition(40.0, -100.0), GeoPosition(50.0, 10.0)]
    assert len(terminals) == 290
    resolver = AccessResolver(params, terminals, quantum_s=1.0)
    blocked = 0
    for q in range(121):
        row = resolver.row(q)
        assert row == access_row(params, terminals, float(q)), q
        blocked += row.count(-1)
    assert (blocked > 0) == (shell == "sparse_high_mask")


def test_access_index_reads_the_row_of_its_quantum():
    # `perfbench/tracer.py` wraps `access_index` by name. It reads the row
    # that the engine holds at time t, at 3 * 0.7 too, where
    # `int(t / quantum_s)` is 2.
    terminals = [DemandGrid.cell_center(r, c) for r in range(12) for c in range(24)]
    resolver = AccessResolver(ConstellationParams(), terminals, quantum_s=0.7)
    for t in (0.0, 0.69, 3 * 0.7, 2.5, 61.3, 600.0):
        row = resolver.row(periods_elapsed(t, 0.7))
        assert [resolver.access_index(h, t) for h in range(0, 288, 7)] == row[::7]
    assert int(3 * 0.7 / 0.7) == 2 and periods_elapsed(3 * 0.7, 0.7) == 3


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
    weights[grid.continents == CONTINENT_CODES["OC"]] = 0.0
    gen = ArrivalGenerator([], DemandGrid(weights, grid.continents), 3000.0,
                           (0.25, 0.25, 0.25, 0.25), 11)
    got = assert_same_stream(gen, 10.0)
    cells = gen.grid.terminal_cells
    oceania = set(np.flatnonzero(grid.continents.ravel() == CONTINENT_CODES["OC"]).tolist())
    assert not {cells[row[3]] for row in got} & oceania  # src_user
    assert {cells[row[4]] for row in got} >= oceania  # dst_user


def random_grid(rng):
    """A random demand grid with zero cells among weighted ones, and one
    continent whose cells all carry zero demand, so it is sampled uniformly."""
    continents = np.array([rng.randrange(6) for _ in range(288)]).reshape(12, 24)
    continents.ravel()[:6] = range(6)  # every continent has a cell
    weights = np.array([rng.choice([0.0, 0.0, rng.random(), rng.randrange(1, 50)])
                        for _ in range(288)]).reshape(12, 24)
    weights[continents == rng.randrange(6)] = 0.0
    if not weights.any():
        weights[continents == continents.ravel()[0]] = 1.0
    return DemandGrid(weights, continents)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sampled_handles_name_the_cells_the_scalar_samplers_pick(seed):
    grid = random_grid(random.Random(seed))
    cells = grid.terminal_cells.tolist()
    assert cells == terminal_cells(grid)
    flat_continents = grid.continents.ravel()
    flat_weights = grid.weights.ravel()
    weightless = [c for c in range(6) if not flat_weights[flat_continents == c].any()]
    assert weightless  # the grid has a continent without demand
    uniform_cells = set(np.flatnonzero(np.isin(flat_continents, weightless)).tolist())
    assert uniform_cells <= set(cells)
    n = 2000
    u = _uniforms(random.Random(seed), 3 * n).reshape(n, 3)
    src, dst = grid.sample_cells(u)
    rng = random.Random(seed)
    for s, d in zip(src, dst):
        src_cell = sample_source_cell(grid, rng)
        dst_cell = sample_cell_in_continent(
            grid, sample_destination(int(flat_continents[src_cell]), rng), rng)
        assert (cells[s], cells[d]) == (src_cell, dst_cell)
    assert {cells[d] for d in dst} & uniform_cells


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
