"""The per-hop layers against their references in `oracles`: busy/idle
classification and PQWRR queue selection must give the same labels, rates,
notifications and service order as the straightforward versions, and PQWRR
must keep the lowest class from starving where strict priority does not
(the paper's claim that low-priority traffic is not starved)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoqsim.congestion import CongestionConfig, CongestionLabel, NodeCongestionState
from leoqsim.scheduling import ALL_CLASSES, PqwrrScheduler, SchedulerConfig, TrafficClass
from oracles import (
    CongestionReference,
    PqwrrReference,
    StrictPriorityReference,
    service_process,
)
from test_scheduling import pkt

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


def test_pqwrr_keeps_b0_from_starving_where_strict_priority_does_not():
    # One satellite served at 500 packets/s for 2 s, offered B2 at 600/s and
    # B1 and B0 at 300/s each. B2 alone overloads it, so under strict
    # priority a B2 packet is always waiting and B0 is never served; the WRR
    # round (4, 2, 1) still gives B0 one service in seven.
    B2, B1, B0 = TrafficClass.B2, TrafficClass.B1, TrafficClass.B0
    pattern = (B2, B1, B2, B0)
    arrivals = [(k / 1200, pkt(pattern[k % 4], tag=k)) for k in range(2400)]
    served = {}
    for name, sched in (("pqwrr", PqwrrScheduler()), ("strict", StrictPriorityReference())):
        completions, _ = service_process(sched, 500.0, arrivals, horizon=2.0)
        served[name] = [p.tos for _, p in completions]
    n = len(served["pqwrr"])
    assert n == len(served["strict"]) >= 990
    assert served["strict"].count(B0) == 0
    assert served["pqwrr"].count(B0) >= n // 7 - 1
