"""Traffic generation: a geographic demand grid drives background load, a
continent-to-continent ratio matrix picks destinations, and tagged foreground
flows connect fixed endpoints. All arrival processes are Poisson with
per-stream seeded generators, so the event stream is reproducible.

Each stream draws its uniforms a block at a time, and they equal the values
`random.Random(seed).random()` returns, call for call: a block is read from
`getrandbits`, which consumes the same Mersenne Twister words. Cells,
continents and classes are picked from the same cumulative tables as the
scalar samplers in `tests/oracles.py`, so the packets are identical too.
Each gap is `-math.log(1 - u) / rate`, as `expovariate` computes it
(vectorized `numpy.log` differs from `math.log` in the last bit on some
inputs), and arrival times add the gaps one at a time. `numpy.random` is
never imported: loading it costs about 6 MB of resident memory. Each stream
holds one block of `_BLOCK` packets, so memory does not grow with the
horizon.

A packet's `src_user` and `dst_user` are terminal handles: indices into
`ArrivalGenerator.terminals`. The terminals are the places traffic can start
or end, so access is solved for no other. They are the grid cells a sample
can return (`DemandGrid.terminal_cells`: every cell with demand, and every
cell of a continent with none), then the foreground flow endpoints. The
sampling tables still span all cells, since dropping the zero cells would
regroup numpy's pairwise sums and change the draws; each block maps its
sampled cells to handles with one index array."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from math import isfinite, log
from operator import itemgetter
from typing import Iterator, Optional, Sequence

import numpy as np

from .constellation import GeoPosition
from .scheduling import ALL_CLASSES, TrafficClass

GRID_ROWS = 12
GRID_COLS = 24


# A continent is its value: the index of its name here and of its row and
# column in CONTINENT_RATIOS. Grid files label cells with CONTINENT_CODES.
CONTINENT_NAMES = ("NORTH_AMERICA", "EUROPE", "ASIA", "SOUTH_AMERICA", "AFRICA", "OCEANIA")
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
_RATIOS_CUM = [np.cumsum(row) for row in CONTINENT_RATIOS]
_CLASSES = np.array(ALL_CLASSES, dtype=object)

# Packets drawn per stream at a time. Each stream holds one block, so memory
# does not grow with the horizon.
_BLOCK = 1024
_TIME = itemgetter(0)  # the arrival time of a block row


def _uniforms(rng: random.Random, n: int) -> np.ndarray:
    """The next n values of `rng.random()`, drawn at once. Each takes two
    32-bit Mersenne Twister words, as `random()` does: the top 27 bits of the
    first and the top 26 of the second make a 53-bit fraction."""
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


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
        if not all(map(isfinite, (*self.src, *self.dst, self.rate))):
            raise ValueError("flow endpoints and rate must be finite")
        if not all(abs(lat) <= 90.0 and abs(lon) <= 180.0 for lat, lon in (self.src, self.dst)):
            raise ValueError("flow endpoints need latitude in [-90, 90], longitude in [-180, 180]")
        if self.rate < 0:
            raise ValueError("flow rate must be >= 0")


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
        n = len(CONTINENT_NAMES)
        if continents.min() < 0 or continents.max() >= n:
            raise ValueError(f"continent labels must map every cell to one of {n} continents")
        self.weights = weights / total
        self.continents = continents
        flat = self.weights.ravel()
        # The cumulative sampling tables: over every cell, and per continent
        # over its cells, with those cells' flat indices. A cell without
        # weight adds nothing to a cumulative sum, so a sample never returns
        # it unless its continent is sampled uniformly.
        self._src_cum = np.cumsum(flat)
        self._cell_cum: list[tuple[np.ndarray, np.ndarray]] = []
        reachable = flat > 0
        for c, name in enumerate(CONTINENT_NAMES):
            cells = np.flatnonzero(continents.ravel() == c)
            if not len(cells):
                raise ValueError(f"continent {name} has no cells")
            w = flat[cells]
            if w.sum() > 0:
                cum = np.cumsum(w / w.sum())
            else:
                cum = np.cumsum(np.full(len(cells), 1.0 / len(cells)))
                reachable[cells] = True
            self._cell_cum.append((cum, cells))
        # Flat indices of the cells a sample can return, and the position of
        # each in that list; the other cells map past every position.
        self.terminal_cells = np.flatnonzero(reachable)
        self._handles = np.full(flat.size, np.iinfo(np.intp).max, dtype=np.intp)
        self._handles[self.terminal_cells] = np.arange(len(self.terminal_cells))

    def sample_cells(self, u: np.ndarray) -> tuple[list[int], list[int]]:
        """Source and destination cells, one pair per row of uniforms `u`, as
        positions in `terminal_cells`: the source weight-proportional from
        column 0, the destination continent from the source's row of the
        ratio table by column 1, and a cell in that continent from column 2
        (uniform if it carries zero demand)."""
        src_cum = self._src_cum
        src = np.searchsorted(src_cum, u[:, 0] * src_cum[-1], side="right")
        src_cont = self.continents.ravel()[src]
        dst_cont = np.empty(len(u), dtype=np.intp)
        for c, cum in enumerate(_RATIOS_CUM):
            rows = np.flatnonzero(src_cont == c)
            dst_cont[rows] = np.searchsorted(cum, u[rows, 1] * cum[-1], side="right")
        np.minimum(dst_cont, 5, out=dst_cont)
        dst = np.empty(len(u), dtype=np.intp)
        for c, (cum, cells) in enumerate(self._cell_cum):
            rows = np.flatnonzero(dst_cont == c)
            k = np.searchsorted(cum, u[rows, 2] * cum[-1], side="right")
            dst[rows] = cells[np.minimum(k, len(cum) - 1)]
        handles = self._handles
        return handles[src].tolist(), handles[dst].tolist()

    @staticmethod
    def cell_center(row: int, col: int) -> GeoPosition:
        return GeoPosition(82.5 - 15.0 * row, -172.5 + 15.0 * col)

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


class ArrivalGenerator:
    """Merged, time-ordered packet arrival stream.

    `terminals[h]` is the position of terminal handle h: first the centres
    of the grid's `terminal_cells`, then the foreground flow endpoints
    (source, destination) of each flow. Background and flow packets alike
    draw their class from `class_mix`. Every stream owns a derived RNG, so
    the generated sequence is independent of consumption interleaving.
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
        self.seed = seed
        self._class_cum = np.cumsum(class_mix)
        self.terminals: list[GeoPosition] = [
            grid.cell_center(*divmod(cell, GRID_COLS)) for cell in grid.terminal_cells.tolist()
        ]
        self._flow_terminals: list[tuple[int, int]] = []
        for spec in self.flows:
            h = len(self.terminals)
            self.terminals += [spec.src, spec.dst]
            self._flow_terminals.append((h, h + 1))

    def _rng(self, stream: int) -> random.Random:
        return random.Random((self.seed * 1_000_003 + stream) & 0xFFFFFFFF)

    def _blocks(
        self, stream: int, rate: float, flow: Optional[int], horizon: float
    ) -> Iterator[list[tuple]]:
        """One stream's arrivals up to the horizon, as a nonempty list of
        (t, tos, src_user, dst_user, flow) rows per block of `_BLOCK`
        packets. A background packet takes five draws (source cell,
        destination continent, cell in that continent, class, next gap), a
        flow packet two (class, next gap), in the order `random()` would
        return them."""
        rng = self._rng(stream)
        draws = 5 if flow is None else 2
        t = -log(1.0 - rng.random()) / rate
        while t <= horizon:
            u = _uniforms(rng, _BLOCK * draws).reshape(_BLOCK, draws)
            times = []
            for x in u[:, -1].tolist():
                times.append(t)
                t += -log(1.0 - x) / rate
            n = bisect_right(times, horizon)
            u = u[:n]
            k = np.searchsorted(self._class_cum, u[:, -2], side="right")
            tos = _CLASSES[np.minimum(k, 3)].tolist()
            if flow is None:
                src, dst = self.grid.sample_cells(u)
            else:
                src, dst = map(repeat, self._flow_terminals[flow])
            yield list(zip(times[:n], tos, src, dst, repeat(flow)))

    def stream(self, horizon: float) -> Iterator[tuple[float, Packet]]:
        """Yield (time, packet) in nondecreasing time order up to the horizon.
        Streams are merged on (time, stream) and packets numbered in that
        order.

        The merge takes a chunk at a time. Of the rows the streams hold, the
        last of some stream's block sorts first on (time, stream); every row
        up to that one comes before any row not yet drawn, so those rows go
        out together, sorted by a stable sort on time over the streams'
        rows in stream order. That stream then draws its next block."""
        streams = []
        if self.background_rate > 0:
            streams.append(self._blocks(0, self.background_rate, None, horizon))
        for i, spec in enumerate(self.flows):
            if spec.rate > 0:
                streams.append(self._blocks(i + 1, spec.rate, i, horizon))
        held = [[] for _ in streams]  # the rows left of each stream's block
        pkt_id = 0
        while True:
            for i in reversed(range(len(streams))):
                if not held[i]:
                    rows = next(streams[i], None)
                    if rows is None:
                        del streams[i], held[i]
                    else:
                        held[i] = rows
            if not held:
                return
            # The first stream whose last row sorts first; rows of earlier
            # streams at its time go out, rows of later ones wait.
            last = min(range(len(held)), key=lambda i: held[i][-1][0])
            t_cut = held[last][-1][0]
            chunk = []
            for i, rows in enumerate(held):
                k = (bisect_right if i <= last else bisect_left)(rows, t_cut, key=_TIME)
                chunk += rows[:k]
                held[i] = rows[k:]
            if len(held) > 1:  # one stream's rows are in order already
                chunk.sort(key=_TIME)
            first, pkt_id = pkt_id, pkt_id + len(chunk)
            for i, (t, tos, src, dst, flow) in enumerate(chunk, first):
                yield t, Packet(i, tos, src, dst, t, flow)
            del chunk  # free the rows before the next block is drawn
