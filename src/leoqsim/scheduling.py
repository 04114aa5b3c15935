"""PQWRR service discipline: strict priority for real-time traffic, weighted
round-robin across the non-real-time subclasses, bounded FIFO queues with
tail drop."""

from __future__ import annotations

from collections import deque
from enum import Enum, IntEnum
from typing import NamedTuple, Optional

from .constellation import SatelliteId


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


class DropRecord(NamedTuple):
    time: float
    satellite: Optional[SatelliteId]
    tos: TrafficClass
    reason: DropReason


class PqwrrScheduler:
    """One on-board scheduler: queue A served by strict priority, B2/B1/B0 by
    weighted round-robin on the leftover bandwidth.

    Within a round each backlogged B-queue gets up to its weight in services,
    visited in B2, B1, B0 order; a queue found empty forfeits its remaining
    credits for the round. Credits persist across class-A preemption. WRR is
    count-based, which is exact for fixed-size packets.
    """

    def __init__(
        self,
        capacity: int = 50,
        weights: tuple[int, int, int] = (4, 2, 1),
        scope: str = "per_queue",
        owner: Optional[SatelliteId] = None,
    ):
        w2, w1, w0 = weights
        if not (w2 > w1 > w0 >= 1):
            raise ValueError("weights must be strictly decreasing from B2 to B0 and >= 1")
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if scope not in ("per_queue", "per_node"):
            raise ValueError("scope must be 'per_queue' or 'per_node'")
        self.capacity = capacity
        self.weights = {TrafficClass.B2: w2, TrafficClass.B1: w1, TrafficClass.B0: w0}
        self.scope = scope
        self.owner = owner
        self.queues: dict[TrafficClass, deque] = {c: deque() for c in ALL_CLASSES}
        self._bqueues = [self.queues[c] for c in B_CLASSES]
        self._wlist = [w2, w1, w0]
        self._credits = [0, 0, 0]  # parallel to B_CLASSES
        self._size = 0
        self._per_queue = scope == "per_queue"

    def __len__(self) -> int:
        return self._size

    def queue_length(self, cls: TrafficClass) -> int:
        return len(self.queues[cls])

    def enqueue(self, pkt, t: float) -> Optional[DropRecord]:
        """Append to the packet's class queue; returns a DropRecord on tail drop."""
        cls = pkt.tos
        q = self.queues[cls]
        occupancy = len(q) if self._per_queue else self._size
        if occupancy >= self.capacity:
            return DropRecord(t, self.owner, cls, DropReason.BUFFER_OVERFLOW)
        q.append(pkt)
        self._size += 1
        return None

    def dequeue(self):
        """Next packet to serve, or None when every queue is empty."""
        qa = self.queues[TrafficClass.A]
        if qa:
            self._size -= 1
            return qa.popleft()
        pkt = self._dequeue_b()
        if pkt is not None:
            self._size -= 1
        return pkt

    def _dequeue_b(self):
        credits = self._credits
        for _ in range(2):  # current round, then at most one fresh round
            for k in range(3):
                if credits[k] > 0:
                    q = self._bqueues[k]
                    if q:
                        credits[k] -= 1
                        return q.popleft()
                    credits[k] = 0  # forfeit: empty at its turn
            credits[0], credits[1], credits[2] = self._wlist  # new round
        return None
