import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from leoqsim import traffic
from leoqsim.constellation import AccessResolver, ConstellationParams, GeoPosition
from leoqsim.scheduling import ALL_CLASSES, TrafficClass
from leoqsim.traffic import (
    CONTINENT_CODES,
    CONTINENT_RATIOS,
    ArrivalGenerator,
    DemandGrid,
    FlowSpec,
    Packet,
)
from oracles import (
    RATIOS_CUM,
    SatelliteId,
    class_mix_cum,
    grid_tables,
    index_of,
    orbital_period_s,
    sample_cell_in_continent,
    sample_destination,
    sample_source_cell,
    subsatellite_point,
)

from pathlib import Path

GRID_PATH = Path(__file__).resolve().parents[1] / "src" / "leoqsim" / "data" / "default_grid.txt"

PARAMS = ConstellationParams()
CONTINENTS = sorted(CONTINENT_CODES.values())


@pytest.fixture(scope="module")
def grid():
    return DemandGrid.load(GRID_PATH)


def share(src, dst):
    """Probability that traffic from continent `src` goes to `dst`."""
    row = CONTINENT_RATIOS[src]
    return row[dst] / sum(row)


class TestRatioTable:
    def test_rows_sum_to_100(self):
        assert len(CONTINENT_RATIOS) == len(CONTINENTS)
        for row in CONTINENT_RATIOS:
            assert len(row) == len(CONTINENTS)
            assert abs(sum(row) - 100.0) <= 0.5

    def test_north_america_to_europe_share(self):
        na, eu = CONTINENT_CODES["NA"], CONTINENT_CODES["EU"]
        assert CONTINENT_RATIOS[na][eu] == 6.74
        p = share(na, eu)
        assert p == pytest.approx(0.0674, abs=0.0005)

    def test_sampling_matches_rows(self):
        rng = random.Random(5)
        n = 100_000
        for src in CONTINENTS:
            counts = Counter(sample_destination(src, rng) for _ in range(n))
            for dst in CONTINENTS:
                p = share(src, dst)
                sigma = math.sqrt(p * (1 - p) / n)
                assert abs(counts[dst] / n - p) <= max(3 * sigma, 1e-4)


class TestDemandGrid:
    def test_loads_and_normalizes(self, grid):
        assert grid.weights.shape == (12, 24)
        assert grid.weights.sum() == pytest.approx(1.0)

    def test_every_cell_has_a_continent(self, grid):
        assert grid.continents.min() >= 0
        assert grid.continents.max() <= 5
        for r in range(12):
            for c in range(24):
                assert grid.continents[r, c] in CONTINENTS

    def test_cell_centers(self, grid):
        assert grid.cell_center(0, 0) == GeoPosition(82.5, -172.5)
        assert grid.cell_center(11, 23) == GeoPosition(-82.5, 172.5)

    def test_a_continent_without_cells_is_named(self, grid):
        continents = np.where(grid.continents == CONTINENT_CODES["OC"], 0, grid.continents)
        with pytest.raises(ValueError, match="^continent OCEANIA has no cells$"):
            DemandGrid(grid.weights, continents)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            DemandGrid(np.zeros((12, 24)), np.zeros((12, 24), dtype=int))

    def test_source_sampling_follows_weights(self, grid):
        rng = random.Random(12)
        n = 50_000
        counts = Counter(sample_source_cell(grid, rng) for _ in range(n))
        flat = grid.weights.ravel()
        heavy = int(np.argmax(flat))
        p = flat[heavy]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[heavy] / n - p) <= 4 * sigma

    def test_continent_cell_sampling_stays_inside(self, grid):
        rng = random.Random(3)
        for cont in CONTINENTS:
            for _ in range(200):
                cell = sample_cell_in_continent(grid, cont, rng)
                assert grid.continents.ravel()[cell] == cont

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        weights = np.ones((12, 24))
        weights[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            DemandGrid(weights, np.zeros((12, 24), dtype=int) + np.arange(24) % 6)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="weight block and a continent block"):
            DemandGrid.from_text("1 2 3")
        good = GRID_PATH.read_text()
        with pytest.raises(ValueError, match="unknown continent code"):
            DemandGrid.from_text(good.replace("NA NA NA", "NA XX NA", 1))


class TestArrivalGenerator:
    def make(self, grid, background=500.0, flows=(), seed=7):
        return ArrivalGenerator(
            flows=list(flows),
            grid=grid,
            background_rate=background,
            class_mix=(0.25, 0.25, 0.25, 0.25),
            seed=seed,
        )

    def test_reproducible_stream(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 100.0)
        a = [
            (t, p.id, p.tos, p.src_user, p.dst_user, p.flow)
            for t, p in self.make(grid, flows=[flow]).stream(5.0)
        ]
        b = [
            (t, p.id, p.tos, p.src_user, p.dst_user, p.flow)
            for t, p in self.make(grid, flows=[flow]).stream(5.0)
        ]
        assert a == b
        assert len(a) > 0

    def test_time_ordered_and_bounded(self, grid):
        last = 0.0
        for t, _ in self.make(grid).stream(10.0):
            assert t >= last
            assert t <= 10.0
            last = t

    def test_class_mix_frequencies(self, grid):
        counts = Counter()
        n = 0
        for _, p in self.make(grid, background=2000.0).stream(50.0):
            counts[p.tos] += 1
            n += 1
        assert n > 90_000
        for cls in ALL_CLASSES:
            assert abs(counts[cls] / n - 0.25) <= 0.005

    def test_poisson_count_foreground(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 100.0)
        gen = self.make(grid, background=0.0, flows=[flow])
        n = sum(1 for _ in gen.stream(1800.0))
        expected = 100.0 * 1800.0
        assert abs(n - expected) <= 3 * math.sqrt(expected)

    def test_destination_continent_conditional(self, grid):
        gen = self.make(grid, background=4000.0, seed=21)
        by_src = {c: Counter() for c in range(6)}
        totals = Counter()
        continent_of = grid.continents.ravel()[grid.terminal_cells].tolist()
        for _, p in gen.stream(50.0):
            src_c = continent_of[p.src_user]
            dst_c = continent_of[p.dst_user]
            by_src[src_c][dst_c] += 1
            totals[src_c] += 1
        for src in CONTINENTS:
            n = totals[src]
            if n < 5000:
                continue
            for dst in CONTINENTS:
                p = share(src, dst)
                sigma = math.sqrt(p * (1 - p) / n)
                assert abs(by_src[src][dst] / n - p) <= max(4 * sigma, 2e-3)

    def test_foreground_packets_are_tagged(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 50.0)
        gen = self.make(grid, background=50.0, flows=[flow])
        kinds = {p.flow for _, p in gen.stream(5.0)}
        assert kinds == {None, 0}

    def test_flow_packets_draw_from_the_class_mix(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 50.0)
        gen = ArrivalGenerator([flow], grid, 0.0, (0.0, 0.0, 1.0, 0.0), 3)
        assert {p.tos for _, p in gen.stream(5.0)} == {TrafficClass.B1}

    def test_gaps_are_taken_with_math_log(self, grid, monkeypatch):
        # Each gap is -math.log(1 - u) / rate, as `expovariate` computes it.
        # Vectorized numpy.log differs from math.log in the last bit on some
        # uniforms: every uniform of the block is such a one here. The first
        # arrival is at 0 and the rate is 1, so the second arrival is the
        # first gap itself, and no larger sum can absorb a one-ulp error.
        rng = random.Random(0)
        probes = np.array([rng.random() for _ in range(20_000)])
        exact = np.array([math.log(1.0 - x) for x in probes.tolist()])
        differs = np.flatnonzero(np.log(1.0 - probes) != exact)
        if not len(differs):
            pytest.skip("numpy.log agrees with math.log on every probe on this platform")
        u = float(probes[differs[0]])

        class FirstGapZero:
            def random(self):
                return 0.0

        monkeypatch.setattr(traffic, "_uniforms", lambda rng, n: np.full(n, u))
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 1.0)
        gen = self.make(grid, background=0.0, flows=[flow])
        monkeypatch.setattr(gen, "_rng", lambda stream: FirstGapZero())
        times = [row[0] for row in next(gen._blocks(1, 1.0, 0, 1e9))]
        expected = [0.0]
        for _ in range(traffic._BLOCK - 1):
            expected.append(expected[-1] + -math.log(1.0 - u) / 1.0)
        assert times[1] == -math.log(1.0 - u)
        assert times == expected

    def stream_peak(self, grid, horizon, background, flows=()):
        """Traced memory peak of consuming one generator's stream."""
        gen = self.make(grid, background=background, flows=flows)
        tracemalloc.start()
        try:
            for _ in gen.stream(horizon):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_horizon(self, grid):
        # Each stream holds one block of draws, so consuming ten times the
        # packets peaks at the same traced memory.
        short = self.stream_peak(grid, 60.0, 800.0)
        assert self.stream_peak(grid, 600.0, 800.0) <= 1.1 * short

    def test_merged_streams_memory_does_not_grow_with_the_horizon(self, grid):
        # The same with a flow stream merged in, at rates that make each
        # stream draw several blocks within the shorter horizon.
        flows = [FlowSpec(GeoPosition(40.0, -100.0), GeoPosition(50.0, 10.0), 60.0)]
        short = self.stream_peak(grid, 60.0, 100.0, flows)
        assert self.stream_peak(grid, 600.0, 100.0, flows) <= 1.1 * short


def test_sampling_tables_hold_python_floats(grid):
    # The scalar samplers in the oracles compare and scale these entries on
    # every draw; numpy scalars would make each of those a numpy operation.
    # The weightless continent gets the uniform table.
    weights = grid.weights.copy()
    weights[grid.continents == CONTINENT_CODES["OC"]] = 0.0
    no_oceania = DemandGrid(weights, grid.continents)
    gen = ArrivalGenerator([], grid, 1.0, (0.1, 0.2, 0.3, 0.4), 1)
    tables = [*RATIOS_CUM, class_mix_cum(gen)]
    for g in (grid, no_oceania):
        cum_all, _, cum_by_continent, _ = grid_tables(g)
        tables += [cum_all, *cum_by_continent]
    assert all(type(x) is float for table in tables for x in table)


def resolver_for(gen, extra=()):
    """An access resolver over the generator's terminals, as the engine
    builds it, followed by `extra` positions."""
    return AccessResolver(PARAMS, gen.terminals + list(extra), quantum_s=1.0)


class TestResolveEndpoints:
    def test_user_under_satellite(self, grid):
        gen = ArrivalGenerator([], grid, 1.0, (0.25, 0.25, 0.25, 0.25), 1)
        t = 600.0
        sat = index_of(PARAMS, SatelliteId(2, 5))
        resolver = resolver_for(gen, [subsatellite_point(PARAMS, sat, t)])
        pkt = Packet(0, TrafficClass.A, len(gen.terminals), 0, t)
        assert resolver.access_index(pkt.src_user, t) == sat

    def test_paper_endpoints_always_resolvable(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 1.0)
        gen = ArrivalGenerator([flow], grid, 0.0, (0.25, 0.25, 0.25, 0.25), 1)
        resolver = resolver_for(gen)
        _, pkt = next(gen.stream(3600.0))  # a flow packet: there is no background
        assert (pkt.src_user, pkt.dst_user) == (len(gen.terminals) - 2, len(gen.terminals) - 1)
        period = orbital_period_s(PARAMS)
        for t in np.linspace(0.0, period, 121):
            assert resolver.access_index(pkt.src_user, float(t)) >= 0
            assert resolver.access_index(pkt.dst_user, float(t)) >= 0


def test_packet_defaults():
    p = Packet(5, TrafficClass.B1, 1, 2, 10.0)
    assert p.hop == 0
    assert p.flow is None
    assert not p.detoured


def test_block_merge_orders_ties_by_stream(grid, monkeypatch):
    # Equal times across streams, some at the end of a block: packets come in
    # (time, stream) order, each stream's rows in their own order, as a heap
    # merge of the streams gives. A row is (t, tos, src_user, dst_user, flow);
    # src_user carries the stream and dst_user the row's place in it.
    times = {
        0: [[0.0, 1.0, 2.0], [2.0, 3.0]],
        1: [[1.0, 2.0], [2.0, 2.0, 4.0]],
        2: [[2.0], [2.0, 3.0], [5.0]],
    }
    blocks = {s: [[(t, TrafficClass.B0, s, sum(map(len, b[:k])) + j, None)
                   for j, t in enumerate(block)] for k, block in enumerate(b)]
              for s, b in times.items()}
    flow = FlowSpec(GeoPosition(0.0, 0.0), GeoPosition(10.0, 10.0), 1.0)
    gen = ArrivalGenerator([flow, flow], grid, 1.0, (0.25, 0.25, 0.25, 0.25), 1)
    monkeypatch.setattr(gen, "_blocks", lambda stream, rate, flow, horizon: iter(blocks[stream]))
    got = [(t, p.id, p.src_user, p.dst_user) for t, p in gen.stream(10.0)]
    rows = [(t, s, j) for s, b in times.items() for j, t in enumerate(sum(b, []))]
    assert got == [(t, i, s, j) for i, (t, s, j) in enumerate(sorted(rows))]
