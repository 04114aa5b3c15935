"""README.md documents every scenario section and key with its default, and
every file a report holds."""

import re
from dataclasses import fields
from pathlib import Path

from leoqsim import scenario
from leoqsim.stats import StatsCollector, export

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section_tables() -> dict[str, dict[str, str]]:
    """section -> {key: default cell} from each `### `[section]`` table."""
    tables = {}
    for block in re.split(r"^### ", README, flags=re.M)[1:]:
        heading = re.match(r"`\[(\w+)\]`", block)
        if heading:
            rows = re.findall(r"^\| `(\w+)` \| ([^|]*?) \|", block, flags=re.M)
            tables[heading.group(1)] = dict(rows)
    return tables


def test_every_section_and_key_is_documented_with_its_default():
    tables = section_tables()
    assert list(tables) == list(scenario._SECTIONS)
    for name, cls in scenario._SECTIONS.items():
        expected = {}
        for f in fields(cls):
            text = scenario._value_to_text(f.default)
            expected[f.name] = f"`{text}`" if text else "none"
        assert tables[name] == expected, name


def test_every_exported_file_is_documented(tmp_path):
    report = StatsCollector(horizon_s=1.0, bucket_s=1.0, seed=1, strategy="composite",
                            names=["-"])
    export(report, tmp_path)
    names = [p.name for p in tmp_path.iterdir()] + ["route_tables.csv", "packet_trace.csv"]
    assert len(names) == 13
    assert [name for name in names if f"`{name}`" not in README] == []
