"""Traffic generation: a geographic demand grid drives background load, a
continent-to-continent ratio matrix picks destinations, and tagged foreground
flows connect fixed endpoints. All arrival processes are Poisson with
per-stream seeded generators, so the event stream is reproducible."""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Optional, Sequence

import numpy as np

from .constellation import GeoPosition
from .scheduling import ALL_CLASSES, TrafficClass

GRID_ROWS = 12
GRID_COLS = 24


class Continent(IntEnum):
    NORTH_AMERICA = 0
    EUROPE = 1
    ASIA = 2
    SOUTH_AMERICA = 3
    AFRICA = 4
    OCEANIA = 5


CONTINENT_CODES = {"NA": 0, "EU": 1, "AS": 2, "SA": 3, "AF": 4, "OC": 5}

# Inter-continental traffic split, percent per source row (rows sum to ~100).
CONTINENT_RATIOS = (
    (86.18, 6.74, 4.18, 1.76, 0.45, 0.70),
    (25.10, 55.88, 13.52, 1.62, 2.84, 1.04),
    (24.04, 20.89, 47.74, 1.15, 1.75, 4.43),
    (52.39, 13.02, 5.96, 25.12, 1.85, 1.66),
    (25.63, 43.34, 17.33, 3.53, 7.95, 2.22),
    (26.48, 10.58, 29.22, 2.11, 1.49, 30.12),
)
_RATIOS_CUM = [list(np.cumsum(row)) for row in CONTINENT_RATIOS]


class Packet:
    """One unit of traffic in transit.

    `src_user`/`dst_user` are terminal handles, `hop` counts
    satellite-to-satellite transmissions only.
    """

    __slots__ = (
        "id",
        "tos",
        "src_user",
        "dst_user",
        "hop",
        "created_at",
        "flow",
        "detoured",
    )

    def __init__(
        self,
        pkt_id: int,
        tos: TrafficClass,
        src_user: int,
        dst_user: int,
        created_at: float,
        flow: Optional[int] = None,
    ):
        self.id = pkt_id
        self.tos = tos
        self.src_user = src_user
        self.dst_user = dst_user
        self.hop = 0
        self.created_at = created_at
        self.flow = flow
        self.detoured = False  # set once the packet leaves the shortest path

    def __repr__(self) -> str:
        return f"Packet({self.id}, {self.tos.name}, u{self.src_user}->u{self.dst_user})"


@dataclass(frozen=True)
class FlowSpec:
    """A tagged point-to-point demand."""

    src: GeoPosition
    dst: GeoPosition
    rate: float  # packets/s

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("flow rate must be >= 0")


def _sample_destination(src: int, rng: random.Random) -> int:
    """Destination continent (its `Continent` value) drawn from row `src` of
    the ratio table."""
    cum = _RATIOS_CUM[src]
    u = rng.random() * cum[-1]
    for j, c in enumerate(cum):
        if u < c:
            return j
    return 5


class DemandGrid:
    """12x24 grid of demand weights with a parallel continent label per cell.

    Row 0 spans latitudes [75, 90] north; column 0 spans longitudes
    [-180, -165). Weights are normalized to sum to 1 at load time.
    """

    def __init__(self, weights: np.ndarray, continents: np.ndarray):
        weights = np.asarray(weights, dtype=float)
        continents = np.asarray(continents, dtype=int)
        if weights.shape != (GRID_ROWS, GRID_COLS) or continents.shape != weights.shape:
            raise ValueError(f"grid must be {GRID_ROWS}x{GRID_COLS}")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValueError("grid weights must be finite and nonnegative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("grid weights are all zero")
        if continents.min() < 0 or continents.max() > 5:
            raise ValueError("continent labels must map every cell to one of 6 continents")
        self.weights = weights / total
        self.continents = continents
        flat = self.weights.ravel()
        self._cum_all = list(np.cumsum(flat))
        self.continent_flat = [int(x) for x in continents.ravel()]
        self._cells_by_continent: dict[int, list[int]] = {}
        self._cum_by_continent: dict[int, list[float]] = {}
        for c in range(6):
            cells = [i for i, cc in enumerate(self.continent_flat) if cc == c]
            if not cells:
                raise ValueError(f"continent {Continent(c).name} has no cells")
            self._cells_by_continent[c] = cells
            w = flat[cells]
            if w.sum() > 0:
                self._cum_by_continent[c] = list(np.cumsum(w / w.sum()))
            else:
                self._cum_by_continent[c] = list(np.cumsum(np.full(len(cells), 1.0 / len(cells))))

    @staticmethod
    def cell_center(row: int, col: int) -> GeoPosition:
        return GeoPosition(82.5 - 15.0 * row, -172.5 + 15.0 * col)

    def continent_of(self, row: int, col: int) -> Continent:
        return Continent(int(self.continents[row, col]))

    def sample_source_cell(self, rng: random.Random) -> int:
        """Flat cell index drawn proportionally to demand weight."""
        return bisect_right(self._cum_all, rng.random() * self._cum_all[-1])

    def sample_cell_in_continent(self, continent: int, rng: random.Random) -> int:
        """Flat cell index within a continent (a `Continent` or its value),
        weight-proportional (uniform if the continent carries zero demand)."""
        cum = self._cum_by_continent[continent]
        k = min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)
        return self._cells_by_continent[continent][k]

    @classmethod
    def from_text(cls, text: str) -> "DemandGrid":
        """Parse the bundled format: 12 rows of 24 weights, a blank line, then
        12 rows of 24 continent codes (NA EU AS SA AF OC)."""
        blocks = [b for b in text.replace("\r\n", "\n").split("\n\n") if b.strip()]
        if len(blocks) != 2:
            raise ValueError("grid file needs a weight block and a continent block")
        w_rows = [r.split() for r in blocks[0].strip().splitlines() if r.strip() and not r.startswith("#")]
        c_rows = [r.split() for r in blocks[1].strip().splitlines() if r.strip() and not r.startswith("#")]
        if len(w_rows) != GRID_ROWS or len(c_rows) != GRID_ROWS:
            raise ValueError(f"grid file must have {GRID_ROWS} weight and {GRID_ROWS} label rows")
        try:
            weights = np.array([[float(x) for x in row] for row in w_rows])
        except ValueError as e:
            raise ValueError(f"bad weight value in grid file: {e}") from None
        labels = np.zeros((GRID_ROWS, GRID_COLS), dtype=int)
        for i, row in enumerate(c_rows):
            if len(row) != GRID_COLS:
                raise ValueError(f"continent row {i} has {len(row)} entries, expected {GRID_COLS}")
            for j, code in enumerate(row):
                if code not in CONTINENT_CODES:
                    raise ValueError(f"unknown continent code {code!r} at row {i} col {j}")
                labels[i, j] = CONTINENT_CODES[code]
        return cls(weights, labels)

    @classmethod
    def load(cls, path) -> "DemandGrid":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_text(f.read())


def _sample_class(mix_cum: Sequence[float], rng: random.Random) -> TrafficClass:
    u = rng.random()
    for cls, c in zip(ALL_CLASSES, mix_cum):
        if u < c:
            return cls
    return ALL_CLASSES[-1]


class ArrivalGenerator:
    """Merged, time-ordered packet arrival stream.

    `terminals[h]` is the position of terminal handle h: handles 0..287 are
    the grid cell centers; foreground flow endpoints (source, destination)
    are appended after them. Background and flow packets alike draw
    their class from `class_mix`. Every stream owns a derived RNG, so the
    generated sequence is independent of consumption interleaving.
    """

    def __init__(
        self,
        flows: Sequence[FlowSpec],
        grid: DemandGrid,
        background_rate: float,
        class_mix: tuple[float, float, float, float],
        seed: int,
    ):
        self.flows = list(flows)
        self.grid = grid
        self.background_rate = background_rate
        self.class_mix_cum = tuple(np.cumsum(class_mix))
        self.seed = seed
        self.terminals: list[GeoPosition] = [
            grid.cell_center(r, c) for r in range(GRID_ROWS) for c in range(GRID_COLS)
        ]
        self._flow_terminals: list[tuple[int, int]] = []
        for spec in self.flows:
            h = len(self.terminals)
            self.terminals += [spec.src, spec.dst]
            self._flow_terminals.append((h, h + 1))

    def _rng(self, stream: int) -> random.Random:
        return random.Random((self.seed * 1_000_003 + stream) & 0xFFFFFFFF)

    def _make_background(self, pkt_id: int, t: float, rng: random.Random) -> Packet:
        grid = self.grid
        src_cell = grid.sample_source_cell(rng)
        dst_cont = _sample_destination(grid.continent_flat[src_cell], rng)
        dst_cell = grid.sample_cell_in_continent(dst_cont, rng)
        tos = _sample_class(self.class_mix_cum, rng)
        return Packet(pkt_id, tos, src_cell, dst_cell, t)

    def stream(self, horizon: float) -> Iterator[tuple[float, Packet]]:
        """Yield (time, packet) in nondecreasing time order up to the horizon."""
        rngs: list[random.Random] = []
        rates: list[float] = []
        kinds: list[int] = []  # -1 background, else flow index
        if self.background_rate > 0:
            rngs.append(self._rng(0))
            rates.append(self.background_rate)
            kinds.append(-1)
        for i, spec in enumerate(self.flows):
            if spec.rate > 0:
                rngs.append(self._rng(i + 1))
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
                pkt = self._make_background(pkt_id, t, rng)
            else:
                src_h, dst_h = self._flow_terminals[kinds[s]]
                tos = _sample_class(self.class_mix_cum, rng)
                pkt = Packet(pkt_id, tos, src_h, dst_h, t, flow=kinds[s])
            pkt_id += 1
            yield t, pkt
            nt = t + rng.expovariate(rates[s])
            if nt <= horizon:
                heapq.heappush(heap, (nt, s))
