import math
import random
from collections import Counter

import numpy as np
import pytest

from leoqsim.constellation import AccessResolver, ConstellationParams, GeoPosition, SatelliteId
from leoqsim.scheduling import ALL_CLASSES, TrafficClass
from leoqsim.traffic import (
    CONTINENT_RATIOS,
    ArrivalGenerator,
    Continent,
    DemandGrid,
    FlowSpec,
    Packet,
    _sample_destination,
)
from oracles import subsatellite_point

from pathlib import Path

GRID_PATH = Path(__file__).resolve().parents[1] / "src" / "leoqsim" / "data" / "default_grid.txt"

PARAMS = ConstellationParams()


@pytest.fixture(scope="module")
def grid():
    return DemandGrid.load(GRID_PATH)


def share(src, dst):
    """Probability that traffic from continent `src` goes to `dst`."""
    row = CONTINENT_RATIOS[src]
    return row[dst] / sum(row)


class TestRatioTable:
    def test_rows_sum_to_100(self):
        assert len(CONTINENT_RATIOS) == len(Continent)
        for row in CONTINENT_RATIOS:
            assert len(row) == len(Continent)
            assert abs(sum(row) - 100.0) <= 0.5

    def test_north_america_to_europe_share(self):
        assert CONTINENT_RATIOS[Continent.NORTH_AMERICA][Continent.EUROPE] == 6.74
        p = share(Continent.NORTH_AMERICA, Continent.EUROPE)
        assert p == pytest.approx(0.0674, abs=0.0005)

    def test_sampling_matches_rows(self):
        rng = random.Random(5)
        n = 100_000
        for src in Continent:
            counts = Counter(_sample_destination(src, rng) for _ in range(n))
            for dst in Continent:
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
                assert grid.continent_of(r, c) in Continent

    def test_cell_centers(self, grid):
        assert grid.cell_center(0, 0) == GeoPosition(82.5, -172.5)
        assert grid.cell_center(11, 23) == GeoPosition(-82.5, 172.5)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            DemandGrid(np.zeros((12, 24)), np.zeros((12, 24), dtype=int))

    def test_source_sampling_follows_weights(self, grid):
        rng = random.Random(12)
        n = 50_000
        counts = Counter(grid.sample_source_cell(rng) for _ in range(n))
        flat = grid.weights.ravel()
        heavy = int(np.argmax(flat))
        p = flat[heavy]
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[heavy] / n - p) <= 4 * sigma

    def test_continent_cell_sampling_stays_inside(self, grid):
        rng = random.Random(3)
        for cont in Continent:
            for _ in range(200):
                cell = grid.sample_cell_in_continent(cont, rng)
                assert grid.continents.ravel()[cell] == int(cont)

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
        for _, p in gen.stream(50.0):
            src_c = int(grid.continents.ravel()[p.src_user])
            dst_c = int(grid.continents.ravel()[p.dst_user])
            by_src[src_c][dst_c] += 1
            totals[src_c] += 1
        for src in Continent:
            n = totals[int(src)]
            if n < 5000:
                continue
            for dst in Continent:
                p = share(src, dst)
                sigma = math.sqrt(p * (1 - p) / n)
                assert abs(by_src[int(src)][int(dst)] / n - p) <= max(4 * sigma, 2e-3)

    def test_foreground_packets_are_tagged(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 50.0)
        gen = self.make(grid, background=50.0, flows=[flow])
        kinds = {p.flow for _, p in gen.stream(5.0)}
        assert kinds == {None, 0}

    def test_flow_packets_draw_from_the_class_mix(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 50.0)
        gen = ArrivalGenerator([flow], grid, 0.0, (0.0, 0.0, 1.0, 0.0), 3)
        assert {p.tos for _, p in gen.stream(5.0)} == {TrafficClass.B1}


def resolver_for(gen, extra=()):
    """An access resolver over the generator's terminals, as the engine
    builds it, followed by `extra` positions."""
    return AccessResolver(PARAMS, gen.terminals + list(extra), quantum_s=1.0)


class TestResolveEndpoints:
    def test_user_under_satellite(self, grid):
        gen = ArrivalGenerator([], grid, 1.0, (0.25, 0.25, 0.25, 0.25), 1)
        t = 600.0
        sat = PARAMS.index_of(SatelliteId(2, 5))
        resolver = resolver_for(gen, [subsatellite_point(PARAMS, sat, t)])
        pkt = Packet(0, TrafficClass.A, len(gen.terminals), 0, t)
        assert resolver.access_index(pkt.src_user, t) == sat

    def test_paper_endpoints_always_resolvable(self, grid):
        flow = FlowSpec(GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), 1.0)
        gen = ArrivalGenerator([flow], grid, 0.0, (0.25, 0.25, 0.25, 0.25), 1)
        resolver = resolver_for(gen)
        pkt = Packet(0, TrafficClass.A, 288, 289, 0.0)
        period = PARAMS.period_s
        for t in np.linspace(0.0, period, 121):
            assert resolver.access_index(pkt.src_user, float(t)) >= 0
            assert resolver.access_index(pkt.dst_user, float(t)) >= 0


def test_packet_defaults():
    p = Packet(5, TrafficClass.B1, 1, 2, 10.0)
    assert p.hop == 0
    assert p.flow is None
    assert not p.detoured
