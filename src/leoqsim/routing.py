"""Per-slot route tables and the per-packet forwarding rule.

Two tables exist per slot: the plain shortest-path table, and a backup table
computed on the topology with busy satellites deleted. Costs are integer
picoseconds end to end, so equal-cost ties and oracle comparisons are exact.

`decide_next_index` is the whole forwarding rule: the engine makes one call
to it per forwarding decision and only acts on the answer. Deciding that a
packet has reached its destination's access satellite, and so leaves by the
downlink, is the engine's, since it needs no route table.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .constellation import (
    PICOSECONDS_PER_SECOND,
    ConstellationParams,
    SatelliteId,
    TopologySnapshot,
)
from .scheduling import TrafficClass

_UNREACHABLE = -1


@dataclass
class RouteTable:
    """All-pairs next-hop map for one topology snapshot.

    Internally index-based: `next_idx[cur][dst]` is the next satellite index
    (-1 when dst is unreachable from cur) and `cost_ps[cur][dst]` the total
    path delay in picoseconds (-1 when unreachable).
    """

    slot_index: int
    params: ConstellationParams
    next_idx: list[list[int]] = field(repr=False)
    cost_ps: list[list[int]] = field(repr=False)

    def next_hop(self, cur: SatelliteId, dst: SatelliteId) -> Optional[SatelliteId]:
        if cur == dst:
            return None
        n = self.next_idx[self.params.index_of(cur)][self.params.index_of(dst)]
        return None if n == _UNREACHABLE else self.params.sid_of(n)

    def entries(self) -> Iterator[tuple[SatelliteId, SatelliteId, Optional[SatelliteId], Optional[float]]]:
        """(src, dst, next_hop, cost_seconds) for every src != dst pair."""
        for i in range(self.params.num_sats):
            src = self.params.sid_of(i)
            for j in range(self.params.num_sats):
                if i == j:
                    continue
                dst = self.params.sid_of(j)
                n = self.next_idx[i][j]
                c = self.cost_ps[i][j]
                yield (
                    src,
                    dst,
                    None if n == _UNREACHABLE else self.params.sid_of(n),
                    None if c < 0 else c / PICOSECONDS_PER_SECOND,
                )


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


def _next_hops_to(
    dst: int, neighbor_table, excluded: list[bool], dist: list[int]
) -> tuple[list[int], list[int]]:
    """Per-source next hop and total cost toward dst.

    The next hop from v is the lowest-index neighbor w with
    w_ps(v, w) + dist(w) minimal; excluded nodes never appear as hops but are
    still given a next hop as sources (they must drain their own queues).
    """
    n = len(neighbor_table)
    nxt = [_UNREACHABLE] * n
    cost = [-1] * n
    cost[dst] = 0 if not excluded[dst] else -1
    for v in range(n):
        if v == dst:
            continue
        best_cost = -1
        best_hop = _UNREACHABLE
        for w, w_ps in neighbor_table[v]:  # sorted by index: first win = lexicographic
            if excluded[w] or dist[w] < 0:
                continue
            c = w_ps + dist[w]
            if best_cost < 0 or c < best_cost:
                best_cost = c
                best_hop = w
        nxt[v] = best_hop
        cost[v] = best_cost
    return nxt, cost


def _build_table(
    snapshot: TopologySnapshot, excluded: list[bool]
) -> tuple[list[list[int]], list[list[int]]]:
    n = snapshot.params.num_sats
    next_idx = [[_UNREACHABLE] * n for _ in range(n)]
    cost_ps = [[-1] * n for _ in range(n)]
    for dst in range(n):
        dist = _dijkstra_to(dst, snapshot.neighbor_table, excluded)
        nxt, cost = _next_hops_to(dst, snapshot.neighbor_table, excluded, dist)
        for v in range(n):
            next_idx[v][dst] = nxt[v]
            cost_ps[v][dst] = cost[v]
    return next_idx, cost_ps


def compute_shortest_path_table(snapshot: TopologySnapshot) -> RouteTable:
    """Minimum-delay next hops for every (current, destination) pair.

    Equal-cost ties break to the lexicographically smallest next-hop id, so
    tables are reproducible across runs and platforms.
    """
    excluded = [False] * snapshot.params.num_sats
    next_idx, cost_ps = _build_table(snapshot, excluded)
    return RouteTable(snapshot.slot_index, snapshot.params, next_idx, cost_ps)


def compute_backup_table(snapshot: TopologySnapshot, busy: set[SatelliteId]) -> RouteTable:
    """Shortest-path table over the topology with busy nodes deleted.

    A busy node still gets next hops as a source so it can forward traffic it
    already holds, but no returned next hop is ever busy, and destinations cut
    off by the deletion are unreachable.
    """
    params = snapshot.params
    excluded = [False] * params.num_sats
    for sid in busy:
        excluded[params.index_of(sid)] = True
    next_idx, cost_ps = _build_table(snapshot, excluded)
    return RouteTable(snapshot.slot_index, params, next_idx, cost_ps)


def decide_next_index(
    tos: TrafficClass,
    here: int,
    dst: int,
    primary: RouteTable,
    backup: Optional[RouteTable],
    busy_flags: list[bool],
    detoured: bool,
) -> tuple[int, bool]:
    """Next satellite index for a packet at `here` bound for `dst`, and
    whether that hop comes from the backup table; (-1, False) means wait.

    Real-time traffic always follows the primary table, even into a busy hop,
    as does all traffic when there is no backup table (strategy pqwrr_only).
    Non-real-time traffic detours via the backup table when the primary hop is
    busy, and waits when the backup hop is missing or itself busy.

    A packet that has been detoured once stays on the backup table until
    delivery: alternating between the two tables hop by hop can bounce a
    packet between neighbouring satellites indefinitely, while a single table
    is loop-free. When the busy episode ends the tables coincide, so a
    detoured packet naturally rejoins shortest paths.
    """
    if not detoured:
        n = primary.next_idx[here][dst]
        if n < 0 or not busy_flags[n] or tos is TrafficClass.A or backup is None:
            return n, False
    b = backup.next_idx[here][dst]
    if b >= 0 and not busy_flags[b]:
        return b, True
    return _UNREACHABLE, False
