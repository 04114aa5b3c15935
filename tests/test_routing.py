import random
from array import array
from contextlib import closing

import numpy as np
import pytest

from leoqsim import engine
from leoqsim.constellation import (
    PICOSECONDS_PER_SECOND,
    ConstellationParams,
    GeoPosition,
    build_topology_snapshot,
)
from leoqsim.routing import (
    compute_backup_table,
    compute_shortest_path_table,
    decide_next_index,
)
from leoqsim.scenario import loads_scenario
from leoqsim.scheduling import ALL_CLASSES, B_CLASSES, TrafficClass
from oracles import (
    SatelliteId,
    access_satellite,
    index_of,
    orbital_period_s,
    route_table,
    sid_of,
)
from spooled import read_rows

PARAMS = ConstellationParams()

INF = 1 << 50


def fw_oracle(snapshot, busy=frozenset()):
    """Brute-force all-pairs costs in integer picoseconds via Floyd-Warshall.

    Only non-busy nodes are relaxed through, so a path may start or end at a
    busy node but never passes through one.
    """
    n = PARAMS.num_sats
    busy_idx = {index_of(PARAMS, s) for s in busy}
    dist = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for (i, j), w in link_ps(snapshot).items():
        dist[i, j] = min(dist[i, j], w)
    for k in range(n):
        if k in busy_idx:
            continue
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def link_ps(snapshot):
    """(i, j) -> link delay in picoseconds, both orderings of every link."""
    return {(i, j): ps for i, row in enumerate(snapshot) for j, ps in row}


def neighbors(snapshot, sid):
    return [sid_of(PARAMS, j) for j, _ in snapshot[index_of(PARAMS, sid)]]


def next_hop(rows, cur, dst):
    """The next hop from cur toward dst of a table's next-hop rows on PARAMS;
    None when there is none (dst unreachable, or cur itself)."""
    n = rows[index_of(PARAMS, cur)][index_of(PARAMS, dst)]
    return None if n < 0 else sid_of(PARAMS, n)


def path(rows, src, dst):
    """Node sequence src..dst by next-hop iteration, or None if unreachable."""
    if src == dst:
        return [src]
    here, out = src, [src]
    for _ in range(PARAMS.num_sats):
        nxt = next_hop(rows, here, dst)
        if nxt is None:
            return None
        out.append(nxt)
        if nxt == dst:
            return out
        here = nxt
    raise AssertionError("routing loop")


def iterated_path_cost_ps(rows, snapshot, src, dst):
    """Cost of the table's realized path, summed edge by edge; None if no route."""
    if src == dst:
        return 0
    weights = link_ps(snapshot)
    total = 0
    here = src
    for _ in range(PARAMS.num_sats):
        nxt = next_hop(rows, here, dst)
        if nxt is None:
            return None
        total += weights[(index_of(PARAMS, here), index_of(PARAMS, nxt))]
        if nxt == dst:
            return total
        here = nxt
    raise AssertionError("routing loop")


def random_busy(rng, size):
    return {SatelliteId(rng.randrange(6), rng.randrange(11)) for _ in range(size)}


def flags_of(busy, params=PARAMS):
    """The engine's busy flags for a set of satellite ids."""
    return [sid_of(params, i) in busy for i in range(params.num_sats)]


@pytest.mark.parametrize("planes, sats_per_plane", [(6, 11), (12, 22), (24, 40)])
def test_tables_equal_the_python_oracle(planes, sats_per_plane):
    # Every (source, destination) entry of next_idx and cost_ps, ties included,
    # with no busy node and with a random busy set that also surrounds one
    # source completely. Busy nodes are reached as destinations, never
    # relayed through.
    params = ConstellationParams(planes=planes, sats_per_plane=sats_per_plane)
    n = params.num_sats
    rng = random.Random(n)
    snap = build_topology_snapshot(params, rng.uniform(0, orbital_period_s(params)))
    src = rng.randrange(n)
    busy = set(rng.sample(range(n), n // 10)) | {j for j, _ in snap[src]}
    busy.discard(src)
    for excluded in (set(), busy):
        flags = [i in excluded for i in range(n)]
        rows, cost = compute_backup_table(snap, flags)
        next_idx, cost_ps = route_table(snap, flags)
        assert all(type(row) is array and row.typecode == "h" for row in rows)
        assert [row.tolist() for row in rows] == next_idx
        assert cost.dtype == np.int64
        assert cost.tolist() == cost_ps
    # The surrounded source reaches its busy neighbours, each over its own
    # link as the last hop, and nothing beyond them.
    nbrs = {j for j, _ in snap[src]}
    assert rows[src].tolist() == [j if j in nbrs else -1 for j in range(n)]
    dst = min(busy)  # a busy destination: every neighbour of it has a route
    assert cost[dst, dst] == 0
    assert all(rows[v][dst] >= 0 for v, _ in snap[dst])


def test_one_hop_next_is_destination():
    snap = build_topology_snapshot(PARAMS, 0.0)
    rows, _ = compute_shortest_path_table(snap)
    a = SatelliteId(0, 0)
    for b in neighbors(snap, a):
        assert next_hop(rows, a, b) == b


def test_primary_matches_floyd_warshall_exactly():
    rng = random.Random(2024)
    for _ in range(20):
        t = rng.uniform(0, 2 * orbital_period_s(PARAMS))
        snap = build_topology_snapshot(PARAMS, t)
        rows, cost = compute_shortest_path_table(snap)
        oracle = fw_oracle(snap)
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                src, dst = sid_of(PARAMS, i), sid_of(PARAMS, j)
                got = iterated_path_cost_ps(rows, snap, src, dst)
                if oracle[i, j] >= INF:
                    assert got is None
                else:
                    assert got == oracle[i, j]
                    assert cost[i, j] == oracle[i, j]


def test_backup_matches_oracle_and_excludes_busy():
    rng = random.Random(77)
    for _ in range(20):
        t = rng.uniform(0, 2 * orbital_period_s(PARAMS))
        snap = build_topology_snapshot(PARAMS, t)
        busy = random_busy(rng, rng.randint(1, 8))
        rows, _ = compute_backup_table(snap, flags_of(busy))
        oracle = fw_oracle(snap, busy)
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                src, dst = sid_of(PARAMS, i), sid_of(PARAMS, j)
                nxt = next_hop(rows, src, dst)
                assert nxt not in busy or nxt == dst
                got = iterated_path_cost_ps(rows, snap, src, dst)
                if oracle[i, j] >= INF:
                    assert got is None
                else:
                    assert got == oracle[i, j]
                    assert not busy.intersection(path(rows, src, dst)[1:-1])


def test_backup_with_empty_busy_equals_primary():
    snap = build_topology_snapshot(PARAMS, 500.0)
    primary, primary_cost = compute_shortest_path_table(snap)
    backup, backup_cost = compute_backup_table(snap, flags_of(set()))
    assert primary == backup
    assert np.array_equal(primary_cost, backup_cost)


def test_flipping_the_callers_flags_leaves_the_table_unchanged():
    snap = build_topology_snapshot(PARAMS, 0.0)
    busy = flags_of({SatelliteId(1, 2), SatelliteId(4, 7)})
    rows, cost = compute_backup_table(snap, busy)
    next_idx = [row[:] for row in rows]
    cost_ps = cost.copy()
    busy[:] = [not b for b in busy]
    assert rows == next_idx
    assert np.array_equal(cost, cost_ps)
    assert rows == compute_backup_table(snap, [not b for b in busy])[0]


def test_entries_give_python_floats_in_seconds():
    # The route dump's lines: the engine writes costs with the repr of a
    # Python float, which a numpy scalar would change, and they parse back
    # to the exact float. With no inter-plane links most pairs are
    # unreachable: their next hop and cost cells are empty.
    cfg = loads_scenario("[run]\nduration_s = 1\n[routing]\ndump_routes = true\n"
                         "[constellation]\nlat_threshold_deg = 0\n")
    params = cfg.constellation
    n = params.num_sats
    next_idx, cost_ps = compute_shortest_path_table(build_topology_snapshot(params, 0.0))
    with closing(engine.Simulation(cfg).run()) as report:
        rows = read_rows(report.route_dump)
        report.route_dump.seek(0)
        assert "np.float64(" not in report.route_dump.read()
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    assert len(rows) == len(pairs)
    name = [str(sid_of(params, i)) for i in range(n)]
    unreachable = 0
    for (slot, src, dst, nxt, cost), (i, j) in zip(rows, pairs):
        assert (slot, src, dst) == (0, name[i], name[j])
        k = next_idx[i][j]
        if k < 0:
            assert (nxt, cost) == ("", None)
            unreachable += 1
        else:
            assert nxt == name[k]
            assert type(cost) is float
            assert cost == int(cost_ps[i, j]) / PICOSECONDS_PER_SECOND
    assert 0 < unreachable < len(pairs)


def test_all_neighbors_busy_isolates_source():
    # The source reaches only its busy neighbours, each as the last hop.
    snap = build_topology_snapshot(PARAMS, 0.0)
    x = SatelliteId(2, 4)
    busy = set(neighbors(snap, x))
    rows, _ = compute_backup_table(snap, flags_of(busy))
    for j in range(PARAMS.num_sats):
        dst = sid_of(PARAMS, j)
        if dst != x:
            assert next_hop(rows, x, dst) == (dst if dst in busy else None)


def test_busy_destination_reachable_but_never_relayed_through():
    snap = build_topology_snapshot(PARAMS, 0.0)
    target = SatelliteId(3, 3)
    busy = {target, SatelliteId(3, 4), SatelliteId(2, 3)}
    rows, _ = compute_backup_table(snap, flags_of(busy))
    for i in range(PARAMS.num_sats):
        src = sid_of(PARAMS, i)
        if src != target:
            p = path(rows, src, target)
            assert p is not None and p[-1] == target
            assert not busy.intersection(p[1:-1])


def test_loop_freedom_both_tables():
    rng = random.Random(5)
    for _ in range(10):
        t = rng.uniform(0, orbital_period_s(PARAMS))
        snap = build_topology_snapshot(PARAMS, t)
        busy = random_busy(rng, rng.randint(0, 6))
        backup = compute_backup_table(snap, flags_of(busy))
        for rows, _ in (compute_shortest_path_table(snap), backup):
            for i in range(PARAMS.num_sats):
                for j in range(PARAMS.num_sats):
                    if i != j:
                        p = path(rows, sid_of(PARAMS, i), sid_of(PARAMS, j))  # raises on loop
                        if p is not None:
                            assert len(set(p)) == len(p)
                            assert len(p) - 1 <= PARAMS.num_sats - 1


def test_monotone_degradation():
    # Deleting nodes never decreases any still-reachable pair's cost.
    rng = random.Random(13)
    for _ in range(8):
        t = rng.uniform(0, orbital_period_s(PARAMS))
        snap = build_topology_snapshot(PARAMS, t)
        _, base = compute_shortest_path_table(snap)
        busy = random_busy(rng, rng.randint(1, 6))
        _, reduced = compute_backup_table(snap, flags_of(busy))
        for i in range(PARAMS.num_sats):
            for j in range(PARAMS.num_sats):
                if i == j:
                    continue
                c0 = base[i, j]
                c1 = reduced[i, j]
                if c1 >= 0:
                    assert c1 >= c0


def test_paper_region_hop_counts_across_slots():
    src_u = GeoPosition(-56.0, 26.0)
    dst_u = GeoPosition(65.2, -58.0)
    for k in range(30):
        t = k * 60.0
        snap = build_topology_snapshot(PARAMS, t)
        rows, _ = compute_shortest_path_table(snap)
        s = access_satellite(src_u, PARAMS, t)
        d = access_satellite(dst_u, PARAMS, t)
        assert s is not None and d is not None
        p = path(rows, s, d)
        assert p is not None
        assert 5 <= len(p) - 1 <= 9


class TestDecideForward:
    SRC = index_of(PARAMS, SatelliteId(0, 0))
    DST = index_of(PARAMS, SatelliteId(3, 5))

    @pytest.fixture()
    def setup(self):
        snap = build_topology_snapshot(PARAMS, 0.0)
        primary, _ = compute_shortest_path_table(snap)
        hop = primary[self.SRC][self.DST]
        return snap, primary, hop

    @staticmethod
    def flags(busy=()):
        return [i in busy for i in range(PARAMS.num_sats)]

    @staticmethod
    def backup_table(snap, busy):
        """The backup rows built for the busy set `busy`."""
        return compute_backup_table(snap, TestDecideForward.flags(busy))[0]

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
        backup = self.backup_table(snap, ())
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
        alt = backup[self.SRC][self.DST]
        assert alt >= 0 and alt != hop
        assert self.decide(TrafficClass.B1, primary, backup, {hop}) == (alt, True)

    def test_class_b_waits_when_no_backup(self, setup):
        snap, primary, hop = setup
        busy = {j for j, _ in snap[self.SRC]}  # source fully surrounded
        backup = self.backup_table(snap, busy)
        assert self.decide(TrafficClass.B0, primary, backup, busy) == (-1, False)

    def test_detoured_packet_stays_on_backup(self, setup):
        # Once detoured, a packet follows the backup table even where the
        # primary hop is idle again.
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        alt = backup[self.SRC][self.DST]
        for tos in B_CLASSES:
            assert self.decide(tos, primary, backup) == (hop, False)
            assert self.decide(tos, primary, backup, detoured=True) == (alt, True)

    def test_detoured_packet_waits_when_backup_hop_missing(self, setup):
        snap, primary, hop = setup
        surrounded = {j for j, _ in snap[self.SRC]}
        backup = self.backup_table(snap, surrounded)
        assert backup[self.SRC][self.DST] == -1
        # The primary hop is idle, yet the detoured packet does not return to it.
        decision = self.decide(TrafficClass.B1, primary, backup, detoured=True)
        assert decision == (-1, False)

    def test_class_b_takes_a_busy_primary_hop_that_is_its_destination(self, setup):
        # Busy satellites are avoided as relays, not as endpoints.
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        busy = self.flags({hop})
        assert primary[self.SRC][hop] == hop
        for tos in B_CLASSES:
            decision = decide_next_index(
                tos, self.SRC, hop, primary, backup, busy, False)
            assert decision == (hop, False)

    def test_detoured_packet_takes_a_busy_backup_hop_that_is_its_destination(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        busy = self.flags({hop})
        assert backup[self.SRC][hop] == hop
        for tos in B_CLASSES:
            decision = decide_next_index(
                tos, self.SRC, hop, primary, backup, busy, True)
            assert decision == (hop, True)

    def test_forwarded_hop_is_adjacent(self, setup):
        snap, primary, hop = setup
        backup = self.backup_table(snap, {hop})
        adjacent = {j for j, _ in snap[self.SRC]}
        for tos in TrafficClass:
            for detoured in (False, True):
                nxt, _ = self.decide(tos, primary, backup, {hop}, detoured)
                if nxt >= 0:
                    assert nxt in adjacent
