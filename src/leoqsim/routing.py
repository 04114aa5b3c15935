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

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .constellation import (
    PICOSECONDS_PER_SECOND,
    ConstellationParams,
    SatelliteId,
    TopologySnapshot,
)
from .scheduling import TrafficClass

_UNREACHABLE = -1
_CLASS_A = TrafficClass.A  # a global lookup; reading it off the Enum class is slower
_INF = 1 << 60  # int64 'no path'; a sum of two still fits
_BLOCK_ENTRIES = 1 << 16  # int64 distances per column block: 512 KiB, held in cache


@dataclass
class RouteTable:
    """All-pairs next-hop map for one topology snapshot.

    Internally index-based: `next_idx[cur][dst]` is the next satellite index
    (-1 when dst is unreachable from cur) and the int64 array
    `cost_ps[cur, dst]` the total path delay in picoseconds (-1 when
    unreachable).
    """

    slot_index: int
    params: ConstellationParams
    next_idx: list[list[int]] = field(repr=False)
    cost_ps: np.ndarray = field(repr=False)

    def next_hop(self, cur: SatelliteId, dst: SatelliteId) -> Optional[SatelliteId]:
        if cur == dst:
            return None
        n = self.next_idx[self.params.index_of(cur)][self.params.index_of(dst)]
        return None if n == _UNREACHABLE else self.params.sid_of(n)

    def entries(self) -> Iterator[tuple[SatelliteId, SatelliteId, Optional[SatelliteId], Optional[float]]]:
        """(src, dst, next_hop, cost_seconds) for every src != dst pair."""
        for i in range(self.params.num_sats):
            src = self.params.sid_of(i)
            costs = self.cost_ps[i].tolist()  # Python ints: exact division, float repr
            for j in range(self.params.num_sats):
                if i == j:
                    continue
                dst = self.params.sid_of(j)
                n = self.next_idx[i][j]
                c = costs[j]
                yield (
                    src,
                    dst,
                    None if n == _UNREACHABLE else self.params.sid_of(n),
                    None if c < 0 else c / PICOSECONDS_PER_SECOND,
                )


def _build_table(
    snapshot: TopologySnapshot, excluded: list[bool]
) -> tuple[list[list[int]], np.ndarray]:
    """(next_idx, cost_ps) over the subgraph without the excluded nodes.

    Destinations are taken in column blocks. For each block, an int64
    Bellman-Ford runs to a fixpoint: `dist[v, d]` is the least delay from v
    to d through non-excluded nodes, `_INF` when there is none, and an
    `_INF` pad row is what padded neighbour slots point at. The next hop from
    v toward d is then the neighbour w with `w_ps(v, w) + dist[w, d]`
    minimal; neighbours are sorted by index and only a strictly smaller cost
    replaces the best, so ties go to the lowest index. Excluded nodes never
    appear as hops or destinations but are still given next hops as sources
    (they must drain their own queues).
    """
    n = snapshot.params.num_sats
    table = snapshot.neighbor_table
    degree = max(map(len, table), default=0)
    nbr = np.full((n, degree), n, dtype=np.intp)
    w_ps = np.full((n, degree), _INF, dtype=np.int64)
    for v, row in enumerate(table):
        for k, (w, ps) in enumerate(row):
            nbr[v, k] = w
            w_ps[v, k] = ps
    cut = np.asarray(excluded, dtype=bool)
    w_in = np.where(cut[:, None], _INF, w_ps)  # no path leaves an excluded node

    nxt = np.full((n, n), _UNREACHABLE, dtype=np.intp)
    cost = np.full((n, n), -1, dtype=np.int64)
    width = max(1, _BLOCK_ENTRIES // (n + 1))
    for lo in range(0, n, width):
        dst = np.arange(lo, min(lo + width, n))
        col = np.arange(len(dst))
        dist = np.full((n + 1, len(dst)), _INF, dtype=np.int64)
        dist[dst, col] = np.where(cut[dst], _INF, 0)
        body = dist[:n]
        step = np.empty_like(body)
        before = np.empty_like(body)
        while True:
            np.copyto(before, body)
            for k in range(degree):
                np.take(dist, nbr[:, k], axis=0, out=step)
                step += w_in[:, k, None]
                np.minimum(body, step, out=body)
            if np.array_equal(before, body):
                break

        best = np.full_like(body, _INF)
        hop = nxt[:, lo : lo + len(dst)]
        for k in range(degree):
            np.take(dist, nbr[:, k], axis=0, out=step)
            step += w_ps[:, k, None]
            better = step < best
            np.copyto(best, step, where=better)
            np.copyto(hop, nbr[:, k, None], where=better)
        hop[dst, col] = _UNREACHABLE
        best[dst, col] = body[dst, col]
        cost[:, lo : lo + len(dst)] = np.where(best < _INF, best, -1)
    # Rows through an object array of the indices, so every list shares the
    # same int objects instead of allocating one per entry.
    ids = np.arange(-1, n).astype(object)
    return ids[nxt + 1].tolist(), cost


def compute_shortest_path_table(snapshot: TopologySnapshot) -> RouteTable:
    """Minimum-delay next hops for every (current, destination) pair.

    Equal-cost ties break to the lexicographically smallest next-hop id, so
    tables are reproducible across runs and platforms.
    """
    excluded = [False] * snapshot.params.num_sats
    next_idx, cost_ps = _build_table(snapshot, excluded)
    return RouteTable(snapshot.slot_index, snapshot.params, next_idx, cost_ps)


def compute_backup_table(snapshot: TopologySnapshot, busy: list[bool]) -> RouteTable:
    """Shortest-path table over the topology with the satellites whose
    `busy` flag is set deleted.

    A busy node still gets next hops as a source so it can forward traffic it
    already holds, but no returned next hop is ever busy, and destinations cut
    off by the deletion are unreachable. The table keeps no reference to
    `busy`, so later flips of the flags do not change it.
    """
    next_idx, cost_ps = _build_table(snapshot, busy)
    return RouteTable(snapshot.slot_index, snapshot.params, next_idx, cost_ps)


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
        if n < 0 or not busy_flags[n] or tos is _CLASS_A or backup is None:
            return n, False
    b = backup.next_idx[here][dst]
    if b >= 0 and not busy_flags[b]:
        return b, True
    return _UNREACHABLE, False
