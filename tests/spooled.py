"""Typed rows of a packet trace or a route dump, read back from the spool a
run wrote or from the exported CSV file, for tests that check what a run
recorded."""

from __future__ import annotations

from pathlib import Path
from typing import IO, Optional, Union


def _cost(cell: str) -> Optional[float]:
    return float(cell) if cell else None  # an unreachable pair's cost is empty


# A file's header -> the type of each of its columns.
COLUMNS = {
    "time,event,pkt_id,class,satellite,hop": (float, str, int, str, str, int),
    "slot,src,dst,next_hop,cost_seconds": (int, str, str, str, _cost),
}


def read_rows(source: Union[IO[str], str, Path]) -> list[tuple]:
    """Every row below the header of `source`, a spool (read from its start)
    or a path: (time, event, pkt_id, class, satellite, hop) for a packet
    trace, (slot, src, dst, next_hop, cost_seconds) for a route dump, each
    cell read as its column's type."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        source.seek(0)
        text = source.read()
    assert text.endswith("\n")
    header, *lines = text[:-1].split("\n")
    types = COLUMNS[header]
    rows = []
    for line in lines:
        cells = line.split(",")
        assert len(cells) == len(types), line
        rows.append(tuple(read(cell) for read, cell in zip(types, cells)))
    return rows
