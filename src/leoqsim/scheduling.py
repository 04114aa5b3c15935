"""PQWRR service discipline: strict priority for real-time traffic, weighted
round-robin across the non-real-time subclasses, bounded FIFO queues with
tail drop."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum, IntEnum


class TrafficClass(IntEnum):
    A = 0
    B2 = 1
    B1 = 2
    B0 = 3


B_CLASSES = (TrafficClass.B2, TrafficClass.B1, TrafficClass.B0)
ALL_CLASSES = (TrafficClass.A,) + B_CLASSES


class DropReason(Enum):
    BUFFER_OVERFLOW = "buffer_overflow"
    ROUTE_WAIT_OVERFLOW = "route_wait_overflow"
    ACCESS_BLOCKED = "access_blocked"


@dataclass(frozen=True)
class SchedulerConfig:
    service_rate: float = 500.0  # packets/s
    weights: tuple[int, int, int] = (4, 2, 1)  # WRR weights of B2, B1, B0
    buffer_capacity: int = 50  # packets
    buffer_scope: str = "per_queue"
    channel_rate: float = 10_000.0  # per-link transmitter, packets/s

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.service_rate, self.channel_rate))):
            raise ValueError("service_rate and channel_rate: must be finite")
        if self.service_rate <= 0:
            raise ValueError("service_rate: must be > 0")
        w2, w1, w0 = self.weights
        if not (w2 > w1 > w0 >= 1):
            raise ValueError("weights: must be strictly decreasing and >= 1")
        if self.buffer_capacity < 0:
            raise ValueError("buffer_capacity: must be >= 0")
        if self.buffer_scope not in ("per_queue", "per_node"):
            raise ValueError("buffer_scope: must be per_queue or per_node")
        if self.channel_rate <= 0:
            raise ValueError("channel_rate: must be > 0")


class PqwrrScheduler:
    """One on-board scheduler: queue A served by strict priority, B2/B1/B0 by
    weighted round-robin on the leftover bandwidth.

    Within a round each backlogged B-queue gets up to its weight in services,
    visited in B2, B1, B0 order; a queue found empty forfeits its remaining
    credits for the round. Credits persist across class-A preemption. WRR is
    count-based, which is exact for fixed-size packets.

    The round's state is a cursor, as in Deficit Round Robin: `_k`, the B
    queue whose turn it is, and `_c`, the credits left at it. The queues
    before `_k` have spent or forfeited theirs and those after it still hold
    their full weights, so the pair stands for the credit vector
    `[0] * _k + [_c] + weights[_k + 1:]`. The start state, `_k = 2` with no
    credit, is the vector `[0, 0, 0]`.
    """

    def __init__(self, cfg: SchedulerConfig = SchedulerConfig()):
        self.capacity = cfg.buffer_capacity
        self.queues: dict[TrafficClass, deque] = {c: deque() for c in ALL_CLASSES}
        self._qa = self.queues[TrafficClass.A]
        self._bqueues = [self.queues[c] for c in B_CLASSES]
        self._wlist = cfg.weights
        self._k, self._c = 2, 0  # round-robin cursor: B queue index, credits left
        self.size = 0  # packets queued, all classes
        self._per_queue = cfg.buffer_scope == "per_queue"

    def enqueue(self, pkt) -> bool:
        """Append to the packet's class queue; returns False on tail drop."""
        q = self.queues[pkt.tos]
        occupancy = len(q) if self._per_queue else self.size
        if occupancy >= self.capacity:
            return False
        q.append(pkt)
        self.size += 1
        return True

    def dequeue(self):
        """Next packet to serve, or None when every queue is empty.

        The cursor serves at `_k` while it holds credit and its queue is
        backlogged; otherwise it moves to the next B queue, from B0 back to
        B2 for a new round, with that queue's full weight. A backlogged queue
        is met within four positions. An empty scheduler spends two rounds
        forfeiting every credit and refills them, so the cursor is left at
        B2 with its full weight."""
        qa = self._qa
        if qa:
            self.size -= 1
            return qa.popleft()
        if not self.size:
            self._k, self._c = 0, self._wlist[0]
            return None
        k, c = self._k, self._c
        queues = self._bqueues
        if not (c and queues[k]):
            k = k + 1 if k < 2 else 0
            while not queues[k]:
                k = k + 1 if k < 2 else 0
            c = self._wlist[k]
        self._k, self._c = k, c - 1
        self.size -= 1
        return queues[k].popleft()

    def start(self, pkt) -> None:
        """Take `pkt` straight into service on an empty scheduler: the state
        `enqueue(pkt)` then `dequeue()` would leave, without touching a queue.
        A B packet spends a credit at the cursor when it is that queue's turn
        and credit is left; otherwise every credit before it is forfeited,
        within this round or the next, and it spends one of its full weight."""
        j = pkt.tos - 1  # index in B_CLASSES; -1 for class A, which holds no credit
        if j >= 0:
            if j == self._k and self._c:
                self._c -= 1
            else:
                self._k, self._c = j, self._wlist[j] - 1
