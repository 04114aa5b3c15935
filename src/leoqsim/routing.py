"""Per-slot route tables and the per-packet forwarding rule.

Two tables exist per slot: the plain shortest-path table, and a backup table
on which busy satellites are never transit hops. A busy satellite is avoided
as a relay, not as an endpoint: it can still be a path's last hop, so traffic
bound for it is delivered rather than parked. Costs are integer picoseconds
end to end, so equal-cost ties and oracle comparisons are exact.

A table is a pair `(next_idx, cost_ps)`. Its next hops are rows of `array`
integers, one row per source: 2 bytes per entry up to 32,767 satellites. The
forwarding rule reads nothing else, so the engine keeps only these rows, and
for each slot it keeps one set of backup rows per distinct busy set it has
met: at most (distinct busy sets in the slot) x N^2 x 2 bytes.

`decide_next_index` is the whole forwarding rule: the engine makes one call
to it per forwarding decision and only acts on the answer. Deciding that a
packet has reached its destination's access satellite, and so leaves by the
downlink, is the engine's, since it needs no route table. The rule waits when
the backup hop is missing, and never finds it busy as a relay: the engine
hands it the backup rows built for the busy flags in force, which avoid them.
"""

from __future__ import annotations

from array import array
from typing import Optional

import numpy as np

from .scheduling import TrafficClass

_UNREACHABLE = -1
_CLASS_A = TrafficClass.A  # a global lookup; reading it off the Enum class is slower
_INF = 1 << 60  # int64 'no path'; a sum of two still fits
_BLOCK_ENTRIES = 1 << 16  # int64 distances per column block: 512 KiB, held in cache

Rows = list[array]  # next_idx[cur][dst]: next satellite index, -1 when unreachable
Neighbors = list[list[tuple[int, int]]]  # table[i]: sorted (j, delay_ps) links of i


def _build_table(table: Neighbors, excluded: list[bool]) -> tuple[Rows, np.ndarray]:
    """(next_idx, cost_ps) over paths with no excluded node as a transit hop.

    `next_idx[cur][dst]` is the next satellite index, -1 when dst is
    unreachable from cur or is cur itself, one `array` row per source.
    `cost_ps[cur, dst]` is the int64 total path delay in picoseconds, -1 when
    unreachable.

    Destinations are taken in column blocks. For each block, an int64
    Bellman-Ford runs to a fixpoint: `dist[v, d]` is the least delay from v
    to d through non-excluded nodes, `_INF` when there is none, and an
    `_INF` pad row is what padded neighbour slots point at. The next hop from
    v toward d is then the neighbour w with `w_ps(v, w) + dist[w, d]`
    minimal; neighbours are sorted by index and only a strictly smaller cost
    replaces the best, so ties go to the lowest index. An excluded node
    appears as a hop only when it is the destination itself: its column starts
    at 0 like any other, but no path leaves it, so none passes through it.
    Excluded nodes are still given next hops as sources (they must drain
    their own queues).
    """
    n = len(table)
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
        dist[dst, col] = 0
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
    code = "h" if n <= 32_767 else "i"  # the same C type to numpy and to array
    rows = []
    for row in nxt.astype(code):  # a loop, not a comprehension: no extra frame
        rows.append(array(code, row.tobytes()))
    return rows, cost


def compute_shortest_path_table(table: Neighbors) -> tuple[Rows, np.ndarray]:
    """Minimum-delay `(next_idx, cost_ps)` for every (current, destination)
    pair of the link graph `table`, laid out as `_build_table` says.

    Equal-cost ties break to the lexicographically smallest next-hop id, so
    tables are reproducible across runs and platforms.
    """
    return _build_table(table, [False] * len(table))


def compute_backup_table(table: Neighbors, busy: list[bool]) -> tuple[Rows, np.ndarray]:
    """Shortest-path `(next_idx, cost_ps)` on which no satellite whose `busy`
    flag is set is a transit hop.

    A returned next hop is busy only when it is the destination itself. A busy
    node still gets next hops as a source so it can forward traffic it already
    holds, and destinations reachable only through a busy relay are
    unreachable (-1). The table keeps no reference to `busy`, so later flips
    of the flags do not change it.
    """
    return _build_table(table, busy)


def decide_next_index(
    tos: TrafficClass,
    here: int,
    dst: int,
    primary: Rows,
    backup: Optional[Rows],
    busy_flags: list[bool],
    detoured: bool,
) -> tuple[int, bool]:
    """Next satellite index for a packet at `here` bound for `dst`, and
    whether that hop comes from the backup table; (-1, False) means wait.
    `primary` and `backup` are the two tables' `next_idx` rows.

    Real-time traffic always follows the primary table, even into a busy hop,
    as does all traffic when there is no backup table (strategy pqwrr_only).
    Non-real-time traffic detours via the backup table when the primary hop is
    busy, and waits when the backup hop is missing. A busy hop that is the
    destination itself is taken from either table: busy satellites are avoided
    as relays, not as endpoints. `busy_flags` is read for the primary hop
    only: `backup` must be the rows built for these flags.

    A packet that has been detoured once stays on the backup table until
    delivery: alternating between the two tables hop by hop can bounce a
    packet between neighbouring satellites indefinitely, while a single table
    is loop-free. When the busy episode ends the tables coincide, so a
    detoured packet naturally rejoins shortest paths.
    """
    if not detoured:
        n = primary[here][dst]
        if n < 0 or not busy_flags[n] or n == dst or tos is _CLASS_A or backup is None:
            return n, False
    b = backup[here][dst]
    if b >= 0:
        return b, True
    return _UNREACHABLE, False
