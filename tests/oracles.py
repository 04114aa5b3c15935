"""Reference implementations that tests compare the package against.

They favour directness over speed: exact per-call geometry for access, the
access resolver's vectorized solve as first written, the scalar orbit
geometry as first written (one satellite position per call), one heap
Dijkstra per destination for route tables, a plain single-server loop for
PQWRR service, busy/idle classification and PQWRR queue selection as first
written (one method per step), strict priority as the discipline PQWRR is
measured against, and the arrival stream as first written (one `random()`
call per draw, one scalar sampler per packet field).
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from leoqsim.constellation import (
    EARTH_RADIUS_KM,
    EARTH_ROTATION_RAD_S,
    SPEED_OF_LIGHT_KM_S,
    ConstellationParams,
    GeoPosition,
    satellite_positions,
)
from leoqsim.congestion import CongestionConfig, CongestionLabel, Notification
from leoqsim.scheduling import (
    ALL_CLASSES,
    B_CLASSES,
    PqwrrScheduler,
    SchedulerConfig,
    TrafficClass,
)
from leoqsim.traffic import _RATIOS_CUM, ArrivalGenerator, DemandGrid, Packet

# The package's cumulative tables as lists of Python floats, which the scalar
# samplers below compare and scale on every draw. `tolist` keeps each float64
# exactly, so the samplers pick what the package's array lookups pick.
RATIOS_CUM = [row.tolist() for row in _RATIOS_CUM]


class SatelliteId(NamedTuple):
    """A satellite as (plane, slot); its `str` is the name the exports print."""

    plane: int
    slot: int

    def __str__(self) -> str:
        return f"S-{self.plane}-{self.slot}"


def sid_of(params: ConstellationParams, index: int) -> SatelliteId:
    """The (plane, slot) of satellite `index`."""
    return SatelliteId(index // params.sats_per_plane, index % params.sats_per_plane)


def index_of(params: ConstellationParams, sid: SatelliteId) -> int:
    """The index of satellite `sid`: the inverse of `sid_of`."""
    return sid.plane * params.sats_per_plane + sid.slot


def orbital_period_s(params: ConstellationParams) -> float:
    """Time of one orbit of the shell."""
    return 2.0 * math.pi / params.mean_motion_rad_s


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
    return sid_of(params, best)


def access_row(params: ConstellationParams, ground: list[GeoPosition], t: float) -> list[int]:
    """Best satellite index per terminal at time t, -1 where none clears the
    elevation mask: `AccessResolver`'s solve as first written, over one
    broadcast (T, N, 3) difference with `np.linalg.norm` and `einsum`."""
    lats = np.radians([p.lat_deg for p in ground])
    lons = np.radians([p.lon_deg for p in ground])
    cl = np.cos(lats)
    unit_ecef = np.stack([cl * np.cos(lons), cl * np.sin(lons), np.sin(lats)], axis=1)
    sat = satellite_positions(params, t)  # (N, 3)
    theta = EARTH_ROTATION_RAD_S * t
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    units = unit_ecef @ rot.T  # terminals in the inertial frame
    d = sat[None, :, :] - (units * EARTH_RADIUS_KM)[:, None, :]  # (T, N, 3)
    dn = np.linalg.norm(d, axis=2)
    sin_e = np.einsum("tns,ts->tn", d, units) / dn
    best = np.argmax(sin_e, axis=1)
    ok = sin_e[np.arange(len(best)), best] >= math.sin(math.radians(params.min_elevation_deg))
    return [int(b) if good else -1 for b, good in zip(best, ok)]


class OrbitGeometryReference:
    """`constellation.OrbitGeometry` as first written: constants held as
    attributes, `slant_delay` calling `sat_xyz`, plus the same-plane chord.
    Its floating-point operation order is the one every exported delay is
    pinned to, so the package's bound delays must equal these exactly."""

    def __init__(self, params: ConstellationParams, ground: Sequence[GeoPosition]):
        n = params.num_sats
        self._sats_per_plane = params.sats_per_plane
        self._orb_a = params.orbit_radius_km
        self._orb_n = params.mean_motion_rad_s
        self._orb_ci = math.cos(math.radians(params.inclination_deg))
        self._orb_si = math.sin(math.radians(params.inclination_deg))
        S = params.sats_per_plane
        raan = [math.radians(params.raan_spread_deg) * (i // S) / params.planes for i in range(n)]
        self._raan_cos = [math.cos(omega) for omega in raan]
        self._raan_sin = [math.sin(omega) for omega in raan]
        phase_offset = math.radians(params.phase_offset_deg)
        self._phase0 = [2.0 * math.pi * (i % S) / S + phase_offset * (i // S) for i in range(n)]
        self._ground_xyz = []
        for pos in ground:
            lat = math.radians(pos.lat_deg)
            lon = math.radians(pos.lon_deg)
            r = EARTH_RADIUS_KM
            cl = math.cos(lat)
            self._ground_xyz.append(
                (r * cl * math.cos(lon), r * cl * math.sin(lon), r * math.sin(lat))
            )

    def sat_xyz(self, idx: int, t: float) -> tuple[float, float, float]:
        """Inertial position (km) of satellite `idx` at time t."""
        u = self._phase0[idx] + self._orb_n * t
        cu, su = math.cos(u), math.sin(u)
        co, so = self._raan_cos[idx], self._raan_sin[idx]
        a, ci = self._orb_a, self._orb_ci
        return (
            a * (co * cu - so * su * ci),
            a * (so * cu + co * su * ci),
            a * su * self._orb_si,
        )

    def chord_delay(self, k: int) -> float:
        """Propagation delay (s) between two satellites of one plane k slots
        apart: the chord 2a*sin(pi*k/S) of the circular orbit."""
        S = self._sats_per_plane
        return self._orb_a * (2.0 * abs(math.sin(math.pi * k / S))) / SPEED_OF_LIGHT_KM_S

    def link_delay(self, i: int, j: int, t: float) -> float:
        """Propagation delay (s) between satellites i and j at time t: the
        plane's chord when both are in one plane, else from their positions."""
        S = self._sats_per_plane
        if i // S == j // S:
            return self.chord_delay((j - i) % S)
        cos, sin = math.cos, math.sin
        nt = self._orb_n * t
        ci, si, a = self._orb_ci, self._orb_si, self._orb_a
        u = self._phase0[i] + nt
        cu, su = cos(u), sin(u)
        co, so = self._raan_cos[i], self._raan_sin[i]
        xi = co * cu - so * su * ci
        yi = so * cu + co * su * ci
        zi = su * si
        u = self._phase0[j] + nt
        cu, su = cos(u), sin(u)
        co, so = self._raan_cos[j], self._raan_sin[j]
        dx = xi - (co * cu - so * su * ci)
        dy = yi - (so * cu + co * su * ci)
        dz = zi - su * si
        return a * math.sqrt(dx * dx + dy * dy + dz * dz) / SPEED_OF_LIGHT_KM_S

    def slant_delay(self, terminal: int, sat: int, t: float) -> float:
        """Uplink/downlink propagation delay (s) between a terminal and a satellite."""
        gx, gy, gz = self._ground_xyz[terminal]
        theta = EARTH_ROTATION_RAD_S * t
        c, s = math.cos(theta), math.sin(theta)
        ux, uy = gx * c - gy * s, gx * s + gy * c
        sx, sy, sz = self.sat_xyz(sat, t)
        d = math.sqrt((sx - ux) ** 2 + (sy - uy) ** 2 + (sz - gz) ** 2)
        return d / SPEED_OF_LIGHT_KM_S


def _dijkstra_to(dst: int, neighbor_table, excluded: list[bool]) -> list[int]:
    """Distances (ps) from every node to dst with no excluded node as a transit
    hop; -1 unreachable. An excluded dst is still reached, from 0."""
    n = len(neighbor_table)
    dist = [-1] * n
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
    table: list[list[tuple[int, int]]], excluded: list[bool]
) -> tuple[list[list[int]], list[list[int]]]:
    """(next_idx, cost_ps) of a neighbour table as lists, entry for entry
    what the package's route-table builders return, -1 for unreachable.

    The next hop from v toward dst is the lowest-index neighbor w with
    w_ps(v, w) + dist(w) minimal. Excluded nodes are never transit hops: one
    appears as a hop only when it is dst itself, and each is still given next
    hops as a source.
    """
    n = len(table)
    next_idx = [[-1] * n for _ in range(n)]
    cost_ps = [[-1] * n for _ in range(n)]
    for dst in range(n):
        dist = _dijkstra_to(dst, table, excluded)
        cost_ps[dst][dst] = 0
        for v in range(n):
            if v == dst:
                continue
            for w, w_ps in table[v]:  # sorted by index: first win = lexicographic
                if (excluded[w] and w != dst) or dist[w] < 0:
                    continue
                c = w_ps + dist[w]
                if cost_ps[v][dst] < 0 or c < cost_ps[v][dst]:
                    cost_ps[v][dst] = c
                    next_idx[v][dst] = w
    return next_idx, cost_ps


class Drop(NamedTuple):
    """A tail drop that `service_process` saw: its time and class."""

    time: float
    tos: TrafficClass


def service_process(
    sched: PqwrrScheduler,
    rate: float,
    arrivals: Iterable[tuple[float, object]],
    horizon: float = math.inf,
) -> tuple[list[tuple[float, object]], list[Drop]]:
    """Single-server reference loop: one dequeue per 1/rate while backlogged.

    `arrivals` must be time-ordered. Selection happens at service start and is
    non-preemptive. Returns (completions, drops); completions later than
    `horizon` are discarded.
    """
    if rate <= 0:
        raise ValueError("rate must be > 0")
    period = 1.0 / rate
    completions: list[tuple[float, object]] = []
    drops: list[Drop] = []
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
        if not sched.enqueue(pkt):
            drops.append(Drop(ta, pkt.tos))
        elif in_service is None:
            in_service = sched.dequeue()
            busy_until = ta + period
    drain(horizon)
    return completions, drops


class CongestionReference:
    """Busy/idle classification as `NodeCongestionState` first did it: each
    arrival appends its time and then runs the full evaluation, which prunes
    the window, divides the count by the window length and compares the rate
    with both thresholds."""

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
        return Notification(t, label, rate)


class _ReferenceQueues:
    """Bounded FIFO class queues with tail drop, as `PqwrrScheduler` keeps them."""

    def __init__(self, cfg: SchedulerConfig = SchedulerConfig()):
        self.capacity = cfg.buffer_capacity
        self.per_queue = cfg.buffer_scope == "per_queue"
        self.queues: dict[TrafficClass, deque] = {c: deque() for c in ALL_CLASSES}
        self.size = 0

    def enqueue(self, pkt) -> bool:
        """Append to the packet's class queue; returns False on tail drop."""
        q = self.queues[pkt.tos]
        if (len(q) if self.per_queue else self.size) >= self.capacity:
            return False
        q.append(pkt)
        self.size += 1
        return True


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


def sample_destination(src: int, rng: random.Random) -> int:
    """Destination continent (its value, a row of the ratio table) drawn
    from row `src` of that table."""
    cum = RATIOS_CUM[src]
    u = rng.random() * cum[-1]
    for j, c in enumerate(cum):
        if u < c:
            return j
    return 5


@lru_cache(maxsize=8)
def grid_tables(grid: DemandGrid) -> tuple[list, list, list, list]:
    """The grid's sampling tables as lists of Python numbers: the cumulative
    weight over every cell, each cell's continent, and per continent the
    cumulative weight over its cells and those cells' flat indices."""
    return (
        grid._src_cum.tolist(),
        grid.continents.ravel().tolist(),
        [cum.tolist() for cum, _ in grid._cell_cum],
        [cells.tolist() for _, cells in grid._cell_cum],
    )


@lru_cache(maxsize=8)
def terminal_cells(grid: DemandGrid) -> list[int]:
    """Flat indices, in order, of the cells a sample can return: each cell
    with demand, and each cell of a continent with none."""
    weights = grid.weights.ravel().tolist()
    continents = grid.continents.ravel().tolist()
    weightless = {c for c in range(6)
                  if not any(w > 0 for w, k in zip(weights, continents) if k == c)}
    return [i for i, (w, c) in enumerate(zip(weights, continents)) if w > 0 or c in weightless]


def sample_source_cell(grid: DemandGrid, rng: random.Random) -> int:
    """Flat cell index drawn proportionally to demand weight."""
    cum = grid_tables(grid)[0]
    return bisect_right(cum, rng.random() * cum[-1])


def sample_cell_in_continent(grid: DemandGrid, continent: int, rng: random.Random) -> int:
    """Flat cell index within a continent (its value),
    weight-proportional (uniform if the continent carries zero demand)."""
    _, _, cum_by_continent, cells_by_continent = grid_tables(grid)
    cum = cum_by_continent[continent]
    k = min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)
    return cells_by_continent[continent][k]


@lru_cache(maxsize=8)
def class_mix_cum(gen: ArrivalGenerator) -> list[float]:
    """The generator's cumulative class mix as Python floats."""
    return gen._class_cum.tolist()


def sample_class(mix_cum: Sequence[float], rng: random.Random) -> TrafficClass:
    u = rng.random()
    for cls, c in zip(ALL_CLASSES, mix_cum):
        if u < c:
            return cls
    return ALL_CLASSES[-1]


def make_background(gen: ArrivalGenerator, pkt_id: int, t: float, rng: random.Random) -> Packet:
    grid = gen.grid
    src_cell = sample_source_cell(grid, rng)
    dst_cont = sample_destination(grid_tables(grid)[1][src_cell], rng)
    dst_cell = sample_cell_in_continent(grid, dst_cont, rng)
    tos = sample_class(class_mix_cum(gen), rng)
    cells = terminal_cells(grid)
    return Packet(pkt_id, tos, cells.index(src_cell), cells.index(dst_cell), t)


def arrival_stream(gen: ArrivalGenerator, horizon: float) -> Iterator[tuple[float, Packet]]:
    """`ArrivalGenerator.stream` as first written: one heap entry per stream,
    and each packet's fields and next gap drawn from the stream's RNG, in that
    order, as it is popped. A background packet's cells are named by their
    position in `terminal_cells`."""
    rngs: list[random.Random] = []
    rates: list[float] = []
    kinds: list[int] = []  # -1 background, else flow index
    if gen.background_rate > 0:
        rngs.append(gen._rng(0))
        rates.append(gen.background_rate)
        kinds.append(-1)
    for i, spec in enumerate(gen.flows):
        if spec.rate > 0:
            rngs.append(gen._rng(i + 1))
            rates.append(spec.rate)
            kinds.append(i)
    heap: list[tuple[float, int]] = []
    for s, (rng, rate) in enumerate(zip(rngs, rates)):
        t = rng.expovariate(rate)
        if t <= horizon:
            heapq.heappush(heap, (t, s))
    pkt_id = 0
    while heap:
        t, s = heapq.heappop(heap)
        rng = rngs[s]
        if kinds[s] < 0:
            pkt = make_background(gen, pkt_id, t, rng)
        else:
            src_h, dst_h = gen._flow_terminals[kinds[s]]
            tos = sample_class(class_mix_cum(gen), rng)
            pkt = Packet(pkt_id, tos, src_h, dst_h, t, flow=kinds[s])
        pkt_id += 1
        yield t, pkt
        nt = t + rng.expovariate(rates[s])
        if nt <= horizon:
            heapq.heappush(heap, (nt, s))
