"""Reference implementations that tests compare the package against.

They favour directness over speed: exact per-call geometry for access, one
heap Dijkstra per destination for route tables, a plain single-server loop
for PQWRR service, busy/idle classification and PQWRR queue selection as
first written (one method per step), and strict priority as the discipline
PQWRR is measured against.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Iterable, Optional

import numpy as np

from leoqsim.constellation import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    ConstellationParams,
    GeoPosition,
    SatelliteId,
    TopologySnapshot,
    satellite_positions,
)
from leoqsim.congestion import CongestionConfig, CongestionLabel, Notification
from leoqsim.scheduling import (
    ALL_CLASSES,
    B_CLASSES,
    DropReason,
    DropRecord,
    PqwrrScheduler,
    SchedulerConfig,
    TrafficClass,
)


def ground_position_eci(user: GeoPosition, t: float) -> np.ndarray:
    """Inertial position of an Earth-fixed point at time t (Earth rotates beneath orbits)."""
    lat = math.radians(user.lat_deg)
    lon = math.radians(user.lon_deg) + EARTH_ROTATION_RAD_S * t
    r = EARTH_RADIUS_KM
    cl = math.cos(lat)
    return np.array([r * cl * math.cos(lon), r * cl * math.sin(lon), r * math.sin(lat)])


def elevation_deg(user: GeoPosition, sat_xyz, t: float) -> float:
    """Elevation angle of a satellite above the user's local horizon."""
    u = ground_position_eci(user, t)
    d = np.asarray(sat_xyz) - u
    s = float(np.dot(d, u)) / (float(np.linalg.norm(d)) * float(np.linalg.norm(u)))
    return math.degrees(math.asin(max(-1.0, min(1.0, s))))


def subsatellite_point(params: ConstellationParams, index: int, t: float) -> GeoPosition:
    """Ground point directly beneath satellite `index` at time t."""
    x, y, z = satellite_positions(params, t)[index]
    lat = math.degrees(math.asin(z / params.orbit_radius_km))
    lon = math.degrees(math.atan2(y, x) - EARTH_ROTATION_RAD_S * t)
    return GeoPosition(lat, (lon + 180.0) % 360.0 - 180.0)


def access_satellite(
    user: GeoPosition, params: ConstellationParams, t: float
) -> Optional[SatelliteId]:
    """Visible satellite with maximum elevation, or None if none clears the mask.

    Ties break toward the smallest (plane, slot), which argmax's first-match
    rule delivers because satellites are indexed in that order.
    """
    pos = satellite_positions(params, t)
    u = ground_position_eci(user, t)
    d = pos - u
    dn = np.linalg.norm(d, axis=1)
    un = float(np.linalg.norm(u))
    sin_e = (d @ u) / (dn * un)
    best = int(np.argmax(sin_e))
    if sin_e[best] < math.sin(math.radians(params.min_elevation_deg)):
        return None
    return params.sid_of(best)


def _dijkstra_to(dst: int, neighbor_table, excluded: list[bool]) -> list[int]:
    """Distances (ps) from every node to dst over non-excluded nodes; -1 unreachable."""
    n = len(neighbor_table)
    dist = [-1] * n
    if excluded[dst]:
        return dist
    dist[dst] = 0
    heap = [(0, dst)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, w_ps in neighbor_table[v]:
            if excluded[w]:
                continue
            nd = d + w_ps
            if dist[w] < 0 or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def route_table(
    snapshot: TopologySnapshot, excluded: list[bool]
) -> tuple[list[list[int]], list[list[int]]]:
    """(next_idx, cost_ps) as `RouteTable` holds them, -1 for unreachable.

    The next hop from v toward dst is the lowest-index neighbor w with
    w_ps(v, w) + dist(w) minimal; excluded nodes never appear as hops or
    destinations but are still given a next hop as sources.
    """
    table = snapshot.neighbor_table
    n = len(table)
    next_idx = [[-1] * n for _ in range(n)]
    cost_ps = [[-1] * n for _ in range(n)]
    for dst in range(n):
        dist = _dijkstra_to(dst, table, excluded)
        cost_ps[dst][dst] = -1 if excluded[dst] else 0
        for v in range(n):
            if v == dst:
                continue
            for w, w_ps in table[v]:  # sorted by index: first win = lexicographic
                if excluded[w] or dist[w] < 0:
                    continue
                c = w_ps + dist[w]
                if cost_ps[v][dst] < 0 or c < cost_ps[v][dst]:
                    cost_ps[v][dst] = c
                    next_idx[v][dst] = w
    return next_idx, cost_ps


def service_process(
    sched: PqwrrScheduler,
    rate: float,
    arrivals: Iterable[tuple[float, object]],
    horizon: float = math.inf,
) -> tuple[list[tuple[float, object]], list[DropRecord]]:
    """Single-server reference loop: one dequeue per 1/rate while backlogged.

    `arrivals` must be time-ordered. Selection happens at service start and is
    non-preemptive. Returns (completions, drops); completions later than
    `horizon` are discarded.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    period = 1.0 / rate
    completions: list[tuple[float, object]] = []
    drops: list[DropRecord] = []
    in_service = None
    busy_until = 0.0

    def drain(upto: float) -> None:
        nonlocal in_service, busy_until
        while in_service is not None and busy_until <= upto:
            completions.append((busy_until, in_service))
            nxt = sched.dequeue()
            in_service = nxt
            if nxt is not None:
                busy_until += period

    for ta, pkt in arrivals:
        drain(ta)
        drop = sched.enqueue(pkt, ta)
        if drop is not None:
            drops.append(drop)
        elif in_service is None:
            in_service = sched.dequeue()
            busy_until = ta + period
    drain(horizon)
    return completions, drops


class CongestionReference:
    """Busy/idle classification as `NodeCongestionState` first did it: each
    arrival appends its time and then runs the full evaluation, which prunes
    the window, divides the count by the window length and compares the rate
    with both thresholds. Notifications carry no satellite."""

    def __init__(self):
        self.rate = 0.0
        self.label = CongestionLabel.IDLE
        self.last_notified = CongestionLabel.IDLE
        self._arrivals: deque[float] = deque()

    def record_arrival(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        self._arrivals.append(t)
        return self.evaluate(t, cfg)

    def evaluate(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        cutoff = t - cfg.window_s
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        rate = len(arrivals) / cfg.window_s
        self.rate = rate
        if rate > cfg.beta:
            label = CongestionLabel.BUSY
        elif rate < cfg.alpha:
            label = CongestionLabel.IDLE
        else:
            label = CongestionLabel.TRANSITION
        self.label = label
        if label is self.last_notified or label is CongestionLabel.TRANSITION:
            return None
        self.last_notified = label
        return Notification(t, None, label, rate)


class _ReferenceQueues:
    """Bounded FIFO class queues with tail drop, as `PqwrrScheduler` keeps them."""

    def __init__(self, cfg: SchedulerConfig = SchedulerConfig()):
        self.capacity = cfg.buffer_capacity
        self.per_queue = cfg.buffer_scope == "per_queue"
        self.queues: dict[TrafficClass, deque] = {c: deque() for c in ALL_CLASSES}
        self.size = 0

    def enqueue(self, pkt, t: float) -> Optional[DropRecord]:
        q = self.queues[pkt.tos]
        if (len(q) if self.per_queue else self.size) >= self.capacity:
            return DropRecord(t, None, pkt.tos, DropReason.BUFFER_OVERFLOW)
        q.append(pkt)
        self.size += 1
        return None


class PqwrrReference(_ReferenceQueues):
    """PQWRR queue selection as first written: class A by strict priority,
    then a two-pass credit scan over B2, B1, B0 in `_dequeue_b`."""

    def __init__(self, cfg: SchedulerConfig = SchedulerConfig()):
        super().__init__(cfg)
        self._bqueues = [self.queues[c] for c in B_CLASSES]
        self._wlist = cfg.weights
        self._credits = [0, 0, 0]

    def dequeue(self):
        qa = self.queues[TrafficClass.A]
        if qa:
            self.size -= 1
            return qa.popleft()
        pkt = self._dequeue_b()
        if pkt is not None:
            self.size -= 1
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


class StrictPriorityReference(_ReferenceQueues):
    """Strict priority over all four classes, A > B2 > B1 > B0: the discipline
    under which low-priority traffic starves."""

    def dequeue(self):
        for cls in ALL_CLASSES:
            q = self.queues[cls]
            if q:
                self.size -= 1
                return q.popleft()
        return None
