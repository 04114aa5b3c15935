import random

import numpy as np
import pytest

from leoqsim import engine
from leoqsim.constellation import (
    PICOSECONDS_PER_SECOND,
    ConstellationParams,
    GeoPosition,
    SatelliteId,
    build_topology_snapshot,
)
from leoqsim.routing import (
    compute_backup_table,
    compute_shortest_path_table,
    decide_next_index,
)
from leoqsim.scenario import loads_scenario
from leoqsim.scheduling import ALL_CLASSES, B_CLASSES, TrafficClass
from oracles import access_satellite, route_table

PARAMS = ConstellationParams()

INF = 1 << 50


def fw_oracle(snapshot, busy=frozenset()):
    """Brute-force all-pairs costs in integer picoseconds via Floyd-Warshall.

    Busy nodes are deleted from the graph; a busy source's cost is the best
    (edge + reduced-graph cost) over its non-busy neighbors.
    """
    params = snapshot.params
    n = params.num_sats
    busy_idx = {params.index_of(s) for s in busy}
    dist = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for (i, j), w in link_ps(snapshot).items():
        if i in busy_idx or j in busy_idx:
            continue
        dist[i, j] = min(dist[i, j], w)
        dist[j, i] = dist[i, j]
    for i in busy_idx:
        dist[i, :] = INF
        dist[:, i] = INF
    for k in range(n):
        if k in busy_idx:
            continue
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    # busy sources re-attach through their own edges
    out = dist.copy()
    for i in busy_idx:
        for j, w in snapshot.neighbor_table[i]:
            if j in busy_idx:
                continue
            out[i, :] = np.minimum(out[i, :], w + dist[j, :])
        out[i, i] = INF  # deleted as a destination, even from itself
    for j in busy_idx:
        out[:, j] = INF
    return out


def link_ps(snapshot):
    """(i, j) -> link delay in picoseconds, both orderings of every link."""
    return {(i, j): ps for i, row in enumerate(snapshot.neighbor_table) for j, ps in row}


def neighbors(snapshot, sid):
    params = snapshot.params
    return [params.sid_of(j) for j, _ in snapshot.neighbor_table[params.index_of(sid)]]


def path(table, src, dst):
    """Node sequence src..dst by next-hop iteration, or None if unreachable."""
    if src == dst:
        return [src]
    here, out = src, [src]
    for _ in range(table.params.num_sats):
        nxt = table.next_hop(here, dst)
        if nxt is None:
            return None
        out.append(nxt)
        if nxt == dst:
            return out
        here = nxt
    raise AssertionError("routing loop")


def iterated_path_cost_ps(table, snapshot, src, dst):
    """Cost of the table's realized path, summed edge by edge; None if no route."""
    if src == dst:
        return 0
    params = snapshot.params
    weights = link_ps(snapshot)
    total = 0
    here = src
    for _ in range(params.num_sats):
        nxt = table.next_hop(here, dst)
        if nxt is None:
            return None
        total += weights[(params.index_of(here), params.index_of(nxt))]
        if nxt == dst:
            return total
        here = nxt
    raise AssertionError("routing loop")


def random_busy(rng, size):
    return {SatelliteId(rng.randrange(6), rng.randrange(11)) for _ in range(size)}


def flags_of(busy, params=PARAMS):
    """The engine's busy flags for a set of satellite ids."""
    return [params.sid_of(i) in busy for i in range(params.num_sats)]


@pytest.mark.parametrize("planes, sats_per_plane", [(6, 11), (12, 22), (24, 40)])
def test_tables_equal_the_python_oracle(planes, sats_per_plane):
    # Every (source, destination) entry of next_idx and cost_ps, ties included,
    # with no busy node and with a random busy set that also surrounds one
    # source completely.
    params = ConstellationParams(planes=planes, sats_per_plane=sats_per_plane)
    n = params.num_sats
    rng = random.Random(n)
    snap = build_topology_snapshot(params, rng.uniform(0, params.period_s))
    src = rng.randrange(n)
    busy = set(rng.sample(range(n), n // 10)) | {j for j, _ in snap.neighbor_table[src]}
    busy.discard(src)
    for excluded in (set(), busy):
        flags = [i in excluded for i in range(n)]
        table = compute_backup_table(snap, flags)
        next_idx, cost_ps = route_table(snap, flags)
        assert table.next_idx == next_idx
        assert table.cost_ps.dtype == np.int64
        assert table.cost_ps.tolist() == cost_ps
    assert table.next_idx[src] == [-1] * n  # the surrounded source has no hop
    dst = min(busy)
    assert [row[dst] for row in table.next_idx] == [-1] * n  # nor has a busy destination


def test_one_hop_next_is_destination():
    snap = build_topology_snapshot(PARAMS, 0.0)
    table = compute_shortest_path_table(snap)
    a = SatelliteId(0, 0)
    for b in neighbors(snap, a):
        assert table.next_hop(a, b) == b


def test_primary_matches_floyd_warshall_exactly():
    rng = random.Random(2024)
    for _ in range(20):
        t = rng.uniform(0, 2 * PARAMS.period_s)
        snap = build_topology_snapshot(PARAMS, t)
        table = compute_shortest_path_table(snap)
        oracle = fw_oracle(snap)
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                src, dst = PARAMS.sid_of(i), PARAMS.sid_of(j)
                got = iterated_path_cost_ps(table, snap, src, dst)
                if oracle[i, j] >= INF:
                    assert got is None
                else:
                    assert got == oracle[i, j]
                    assert table.cost_ps[i, j] == oracle[i, j]


def test_backup_matches_oracle_and_excludes_busy():
    rng = random.Random(77)
    for _ in range(20):
        t = rng.uniform(0, 2 * PARAMS.period_s)
        snap = build_topology_snapshot(PARAMS, t)
        busy = random_busy(rng, rng.randint(1, 8))
        table = compute_backup_table(snap, flags_of(busy))
        oracle = fw_oracle(snap, busy)
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                src, dst = PARAMS.sid_of(i), PARAMS.sid_of(j)
                nxt = table.next_hop(src, dst)
                assert nxt not in busy
                got = iterated_path_cost_ps(table, snap, src, dst)
                if oracle[i, j] >= INF:
                    assert got is None
                else:
                    assert got == oracle[i, j]


def test_backup_with_empty_busy_equals_primary():
    snap = build_topology_snapshot(PARAMS, 500.0)
    primary = compute_shortest_path_table(snap)
    backup = compute_backup_table(snap, flags_of(set()))
    assert primary.next_idx == backup.next_idx
    assert np.array_equal(primary.cost_ps, backup.cost_ps)


def test_flipping_the_callers_flags_leaves_the_table_unchanged():
    snap = build_topology_snapshot(PARAMS, 0.0)
    busy = flags_of({SatelliteId(1, 2), SatelliteId(4, 7)})
    table = compute_backup_table(snap, busy)
    next_idx = [row[:] for row in table.next_idx]
    cost_ps = table.cost_ps.copy()
    busy[:] = [not b for b in busy]
    assert table.next_idx == next_idx
    assert np.array_equal(table.cost_ps, cost_ps)
    assert table.next_idx == compute_backup_table(snap, [not b for b in busy]).next_idx


def test_entries_give_python_floats_in_seconds():
    # stats writes floats with repr, which numpy scalars would change.
    snap = build_topology_snapshot(PARAMS, 0.0)
    table = compute_shortest_path_table(snap)
    rows = list(table.entries())
    assert len(rows) == PARAMS.num_sats * (PARAMS.num_sats - 1)
    for src, dst, nxt, cost in rows:
        assert type(cost) is float
        i, j = PARAMS.index_of(src), PARAMS.index_of(dst)
        assert cost == int(table.cost_ps[i, j]) / PICOSECONDS_PER_SECOND
        assert nxt == table.next_hop(src, dst)


def test_all_neighbors_busy_isolates_source():
    snap = build_topology_snapshot(PARAMS, 0.0)
    x = SatelliteId(2, 4)
    busy = set(neighbors(snap, x))
    table = compute_backup_table(snap, flags_of(busy))
    for j in range(PARAMS.num_sats):
        dst = PARAMS.sid_of(j)
        if dst != x:
            assert table.next_hop(x, dst) is None


def test_busy_destination_unreachable():
    snap = build_topology_snapshot(PARAMS, 0.0)
    busy = {SatelliteId(3, 3)}
    table = compute_backup_table(snap, flags_of(busy))
    for i in range(PARAMS.num_sats):
        src = PARAMS.sid_of(i)
        if src != SatelliteId(3, 3):
            assert table.next_hop(src, SatelliteId(3, 3)) is None


def test_loop_freedom_both_tables():
    rng = random.Random(5)
    for _ in range(10):
        t = rng.uniform(0, PARAMS.period_s)
        snap = build_topology_snapshot(PARAMS, t)
        busy = random_busy(rng, rng.randint(0, 6))
        backup = compute_backup_table(snap, flags_of(busy))
        for table in (compute_shortest_path_table(snap), backup):
            for i in range(PARAMS.num_sats):
                for j in range(PARAMS.num_sats):
                    if i != j:
                        p = path(table, PARAMS.sid_of(i), PARAMS.sid_of(j))  # raises on loop
                        if p is not None:
                            assert len(set(p)) == len(p)
                            assert len(p) - 1 <= PARAMS.num_sats - 1


def test_monotone_degradation():
    # Deleting nodes never decreases any still-reachable pair's cost.
    rng = random.Random(13)
    for _ in range(8):
        t = rng.uniform(0, PARAMS.period_s)
        snap = build_topology_snapshot(PARAMS, t)
        base = compute_shortest_path_table(snap)
        busy = random_busy(rng, rng.randint(1, 6))
        reduced = compute_backup_table(snap, flags_of(busy))
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                c0 = base.cost_ps[i, j]
                c1 = reduced.cost_ps[i, j]
                if c1 >= 0:
                    assert c1 >= c0


def test_paper_region_hop_counts_across_slots():
    src_u = GeoPosition(-56.0, 26.0)
    dst_u = GeoPosition(65.2, -58.0)
    for k in range(30):
        t = k * 60.0
        snap = build_topology_snapshot(PARAMS, t, k)
        table = compute_shortest_path_table(snap)
        s = access_satellite(src_u, PARAMS, t)
        d = access_satellite(dst_u, PARAMS, t)
        assert s is not None and d is not None
        p = path(table, s, d)
        assert p is not None
        assert 5 <= len(p) - 1 <= 9


class TestDecideForward:
    SRC = PARAMS.index_of(SatelliteId(0, 0))
    DST = PARAMS.index_of(SatelliteId(3, 5))

    @pytest.fixture()
    def setup(self):
        snap = build_topology_snapshot(PARAMS, 0.0)
        primary = compute_shortest_path_table(snap)
        hop = primary.next_idx[self.SRC][self.DST]
        return snap, primary, hop

    @staticmethod
    def flags(busy=()):
        return [i in busy for i in range(PARAMS.num_sats)]

    @staticmethod
    def backup_table(snap, busy):
        return compute_backup_table(snap, TestDecideForward.flags(busy))

    def decide(self, tos, primary, backup, busy=(), detoured=False):
        return decide_next_index(
            tos, self.SRC, self.DST, primary, backup, self.flags(busy), detoured
        )

    def test_deliver_at_destination(self, monkeypatch):
        # A packet at its destination's access satellite leaves by the downlink
        # without consulting the forwarding rule: a flow whose two endpoints
        # share a position is delivered with zero hops.
        def no_route(*args):
            raise AssertionError("forwarding rule consulted")

        monkeypatch.setattr(engine, "decide_next_index", no_route)
        cfg = loads_scenario(
            "[traffic]\nbackground_rate = 0\nflows = 10,20 -> 10,20 @ 200\n"
            "[run]\nduration_s = 2\n"
        )
        report = engine.Simulation(cfg).run()
        assert report.delivered_total() > 0
        assert report.delivered_total() + report.residual == report.generated_total()
        assert report.wait_enqueues == 0
        for cls in ALL_CLASSES:
            assert report.mean_hops(cls) in (None, 0.0)

    def test_idle_hop_forwards_primary(self, setup):
        snap, primary, hop = setup
        backup = compute_backup_table(snap, self.flags())
        assert self.decide(TrafficClass.B1, primary, backup) == (hop, False)

    def test_class_a_ignores_busy_hop(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        assert self.decide(TrafficClass.A, primary, backup, {hop}) == (hop, False)

    def test_no_backup_table_forwards_into_busy_hop(self, setup):
        # Strategy pqwrr_only keeps no backup table: every class stays on the
        # shortest path.
        snap, primary, hop = setup
        for tos in TrafficClass:
            assert self.decide(tos, primary, None, {hop}) == (hop, False)

    def test_class_b_detours_via_backup(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        alt = backup.next_idx[self.SRC][self.DST]
        assert alt >= 0 and alt != hop
        assert self.decide(TrafficClass.B1, primary, backup, {hop}) == (alt, True)

    def test_class_b_waits_when_no_backup(self, setup):
        snap, primary, hop = setup
        busy = {j for j, _ in snap.neighbor_table[self.SRC]}  # source fully surrounded
        backup = self.backup_table(snap, busy)
        assert self.decide(TrafficClass.B0, primary, backup, busy) == (-1, False)

    def test_class_b_waits_when_backup_hop_busy(self, setup):
        snap, primary, hop = setup
        # Stale-table situation: backup built for {hop} but its suggested hop
        # has since gone busy as well; the state check at forwarding time wins.
        backup = self.backup_table(snap, {hop})
        alt = backup.next_idx[self.SRC][self.DST]
        assert self.decide(TrafficClass.B2, primary, backup, {hop, alt}) == (-1, False)

    def test_detoured_packet_stays_on_backup(self, setup):
        # Once detoured, a packet follows the backup table even where the
        # primary hop is idle again.
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        alt = backup.next_idx[self.SRC][self.DST]
        for tos in B_CLASSES:
            assert self.decide(tos, primary, backup) == (hop, False)
            assert self.decide(tos, primary, backup, detoured=True) == (alt, True)

    def test_detoured_packet_waits_when_backup_hop_missing(self, setup):
        snap, primary, hop = setup
        surrounded = {j for j, _ in snap.neighbor_table[self.SRC]}
        backup = self.backup_table(snap, surrounded)
        assert backup.next_idx[self.SRC][self.DST] == -1
        # The primary hop is idle, yet the detoured packet does not return to it.
        decision = self.decide(TrafficClass.B1, primary, backup, detoured=True)
        assert decision == (-1, False)

    def test_detoured_packet_waits_when_backup_hop_busy(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        alt = backup.next_idx[self.SRC][self.DST]
        decision = self.decide(TrafficClass.B0, primary, backup, {alt}, detoured=True)
        assert decision == (-1, False)

    def test_forwarded_hop_is_adjacent(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        adjacent = {j for j, _ in snap.neighbor_table[self.SRC]}
        for tos in TrafficClass:
            for detoured in (False, True):
                nxt, _ = self.decide(tos, primary, backup, {hop}, detoured)
                if nxt >= 0:
                    assert nxt in adjacent
