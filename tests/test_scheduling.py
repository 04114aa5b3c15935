import itertools
import random
from types import SimpleNamespace

import pytest

from leoqsim.scheduling import (
    ALL_CLASSES,
    B_CLASSES,
    DropReason,
    PqwrrScheduler,
    SchedulerConfig,
    TrafficClass,
)
from oracles import service_process


def pkt(tos, tag=None):
    return SimpleNamespace(tos=tos, tag=tag)


def sched(capacity=50, weights=(4, 2, 1), scope="per_queue"):
    cfg = SchedulerConfig(weights=weights, buffer_capacity=capacity, buffer_scope=scope)
    return PqwrrScheduler(cfg)


def test_weight_validation():
    # The PQWRR rules live in SchedulerConfig; each message names its key.
    with pytest.raises(ValueError, match="^weights: "):
        SchedulerConfig(weights=(2, 2, 1))
    with pytest.raises(ValueError, match="^weights: "):
        SchedulerConfig(weights=(4, 2, 0))
    with pytest.raises(ValueError, match="^buffer_scope: "):
        SchedulerConfig(buffer_scope="per_link")
    with pytest.raises(ValueError, match="^buffer_capacity: "):
        SchedulerConfig(buffer_capacity=-1)


class TestEnqueue:
    def test_accept_then_overflow(self):
        s = sched(capacity=50)
        for _ in range(50):
            assert s.enqueue(pkt(TrafficClass.B0), 1.0) is None
        drop = s.enqueue(pkt(TrafficClass.B0), 1.5)
        assert drop is not None
        assert drop.reason is DropReason.BUFFER_OVERFLOW
        assert drop.tos is TrafficClass.B0
        assert drop.time == 1.5

    def test_per_queue_capacity_is_independent(self):
        s = sched(capacity=50)
        for _ in range(50):
            s.enqueue(pkt(TrafficClass.B0), 0.0)
        assert s.enqueue(pkt(TrafficClass.A), 0.0) is None

    def test_per_node_scope_shares_capacity(self):
        s = sched(capacity=50, scope="per_node")
        for _ in range(50):
            assert s.enqueue(pkt(TrafficClass.B0), 0.0) is None
        assert s.enqueue(pkt(TrafficClass.A), 0.0) is not None

    def test_zero_capacity_drops_everything(self):
        s = sched(capacity=0)
        for tos in ALL_CLASSES:
            assert s.enqueue(pkt(tos), 0.0) is not None


class TestDequeue:
    def test_empty_returns_none(self):
        assert sched().dequeue() is None

    def test_class_a_head_of_line(self):
        s = sched()
        for tos in B_CLASSES:
            s.enqueue(pkt(tos), 0.0)
        s.enqueue(pkt(TrafficClass.A, tag="a"), 0.0)
        assert s.dequeue().tag == "a"

    def test_strict_priority_black_box(self):
        rng = random.Random(1)
        s = sched(capacity=10_000)
        for _ in range(500):
            s.enqueue(pkt(rng.choice(ALL_CLASSES)), 0.0)
        while True:
            a_backlog = s.queue_length(TrafficClass.A)
            p = s.dequeue()
            if p is None:
                break
            if a_backlog > 0:
                assert p.tos is TrafficClass.A

    def test_wrr_round_pattern(self):
        # All B-queues continuously backlogged, A empty: service order is
        # B2 x4, B1 x2, B0 x1, repeating.
        s = sched(capacity=10_000, weights=(4, 2, 1))
        for _ in range(200):
            for tos in B_CLASSES:
                s.enqueue(pkt(tos), 0.0)
        expected = [TrafficClass.B2] * 4 + [TrafficClass.B1] * 2 + [TrafficClass.B0]
        seq = [s.dequeue().tos for _ in range(140)]
        assert seq == list(itertools.islice(itertools.cycle(expected), 140))

    def test_wrr_round_follows_configured_weights(self):
        s = sched(capacity=10_000, weights=(3, 2, 1))
        for _ in range(60):
            for tos in B_CLASSES:
                s.enqueue(pkt(tos), 0.0)
        expected = [TrafficClass.B2] * 3 + [TrafficClass.B1] * 2 + [TrafficClass.B0]
        assert [s.dequeue().tos for _ in range(60)] == expected * 10

    def test_wrr_credits_survive_class_a_preemption(self):
        s = sched(capacity=100, weights=(4, 2, 1))
        for _ in range(20):
            for tos in B_CLASSES:
                s.enqueue(pkt(tos), 0.0)
        assert [s.dequeue().tos for _ in range(2)] == [TrafficClass.B2] * 2
        s.enqueue(pkt(TrafficClass.A), 0.0)
        assert s.dequeue().tos is TrafficClass.A
        # round resumes where it left off: B2 still holds 2 credits
        assert [s.dequeue().tos for _ in range(3)] == [
            TrafficClass.B2,
            TrafficClass.B2,
            TrafficClass.B1,
        ]

    def test_empty_queue_forfeits_credits(self):
        s = sched(capacity=100, weights=(4, 2, 1))
        s.enqueue(pkt(TrafficClass.B2, tag=0), 0.0)
        for i in range(4):
            s.enqueue(pkt(TrafficClass.B1, tag=i), 0.0)
        # B2 serves once then runs empty; its remaining 3 credits are lost,
        # B1 serves its 2, new round starts with B1 again.
        seq = [s.dequeue().tos for _ in range(5)]
        assert seq == [
            TrafficClass.B2,
            TrafficClass.B1,
            TrafficClass.B1,
            TrafficClass.B1,
            TrafficClass.B1,
        ]

    def test_fifo_within_class(self):
        s = sched(capacity=1000)
        rng = random.Random(3)
        counters = {c: 0 for c in ALL_CLASSES}
        for _ in range(400):
            tos = rng.choice(ALL_CLASSES)
            s.enqueue(pkt(tos, tag=counters[tos]), 0.0)
            counters[tos] += 1
        seen = {c: -1 for c in ALL_CLASSES}
        while True:
            p = s.dequeue()
            if p is None:
                break
            assert p.tag == seen[p.tos] + 1
            seen[p.tos] = p.tag


class TestServiceProcess:
    def test_backlog_drains_at_service_rate(self):
        s = sched(capacity=1000)
        arrivals = [(0.0, pkt(TrafficClass.A)) for _ in range(100)]
        completions, drops = service_process(s, 500.0, arrivals)
        assert not drops
        assert len(completions) == 100
        assert completions[-1][0] == pytest.approx(0.2)

    def test_gap_only_when_empty(self):
        s = sched()
        arrivals = [(5.0, pkt(TrafficClass.B1)), (10.0, pkt(TrafficClass.B1))]
        completions, _ = service_process(s, 500.0, arrivals)
        assert [t for t, _ in completions] == pytest.approx([5.002, 10.002])

    def test_underload_no_drops(self):
        # 400/s offered across all classes against a 500/s server: zero drops
        # over a minute once past warm-up.
        rng = random.Random(11)
        s = sched(capacity=50)
        arrivals = []
        t = 0.0
        while t < 70.0:
            t += rng.expovariate(400.0)
            arrivals.append((t, pkt(rng.choice(ALL_CLASSES))))
        completions, drops = service_process(s, 500.0, arrivals)
        assert [d for d in drops if d.time > 10.0] == []

    def test_mild_overload_starves_lowest_weight_only(self):
        # Deterministic 1.1x overload, equal class mix: only B0 drops.
        s = sched(capacity=50)
        arrivals = []
        period = 1.0 / 550.0
        for i in range(55_000):  # 100 s
            tos = ALL_CLASSES[i % 4]
            arrivals.append((i * period, pkt(tos)))
        completions, drops = service_process(s, 500.0, arrivals)
        dropped = {c: 0 for c in ALL_CLASSES}
        for d in drops:
            dropped[d.tos] += 1
        assert dropped[TrafficClass.A] == 0
        assert dropped[TrafficClass.B2] == 0
        assert dropped[TrafficClass.B1] == 0
        assert dropped[TrafficClass.B0] > 0

    def test_heavy_overload_loss_ordering(self):
        # 600/s uniform: B0 saturates first and worst; class A never drops.
        rng = random.Random(4)
        s = sched(capacity=50)
        arrivals = []
        t = 0.0
        while t < 120.0:
            t += rng.expovariate(600.0)
            arrivals.append((t, pkt(rng.choice(ALL_CLASSES))))
        _, drops = service_process(s, 500.0, arrivals)
        dropped = {c: 0 for c in ALL_CLASSES}
        for d in drops:
            dropped[d.tos] += 1
        assert dropped[TrafficClass.A] == 0
        assert dropped[TrafficClass.B0] >= dropped[TrafficClass.B1] >= dropped[TrafficClass.B2]
        assert dropped[TrafficClass.B0] > 0
        first_drop = min(drops, key=lambda d: d.time)
        assert first_drop.tos is TrafficClass.B0

    def test_work_conservation_for_class_a(self):
        rng = random.Random(8)
        s = sched(capacity=50)
        arrivals = []
        t = 0.0
        while t < 60.0:
            t += rng.expovariate(400.0)
            arrivals.append((t, pkt(TrafficClass.A)))
        completions, drops = service_process(s, 500.0, arrivals)
        assert not drops
        assert len(completions) == len(arrivals)
