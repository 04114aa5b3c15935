"""Scenario configuration: typed sections, INI-style files, strict validation.

The section dataclasses are the schema. Each field of `ScenarioConfig` built
by a default factory is one INI section, and each field of a section is one
key; its default is the value an absent key takes, and the type of that
default is how a present key is read (bool, int, finite float, a tuple of
them of the default's length, or str; `flows` is the one special case).
Unknown sections or keys are rejected so typos cannot silently fall back to
defaults, and each section's `__post_init__` checks its values.
`serialize_scenario` walks the same fields and emits a file that parses back
to an equal config.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .congestion import CongestionConfig
from .constellation import ConstellationParams, GeoPosition
from .scheduling import SchedulerConfig
from .traffic import DemandGrid, FlowSpec

STRATEGIES = ("composite", "pqwrr_only")

# A scenario expecting more packets, or more events of one periodic schedule,
# than this could not finish in any useful time, so validation rejects it.
MAX_EXPECTED_EVENTS = 10**9


class ScenarioError(ValueError):
    """A named configuration key failed validation."""


@dataclass(frozen=True)
class RoutingConfig:
    slot_length_s: float = 60.0
    strategy: str = "composite"
    wait_queue_capacity: int = 1000
    dump_routes: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.slot_length_s):
            raise ScenarioError("[routing] slot_length_s: must be finite")
        if self.slot_length_s <= 0:
            raise ScenarioError("[routing] slot_length_s: must be > 0")
        if self.strategy not in STRATEGIES:
            raise ScenarioError(f"[routing] strategy: must be one of {STRATEGIES}")
        if self.wait_queue_capacity < 0:
            raise ScenarioError("[routing] wait_queue_capacity: must be >= 0")


@dataclass(frozen=True)
class TrafficSection:
    background_rate: float = 800.0  # packets/s, global
    grid_file: str = "default"
    class_mix: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    flows: tuple[FlowSpec, ...] = ()
    count_uplink_in_rate: bool = True

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.background_rate, *self.class_mix))):
            raise ScenarioError("[traffic] background_rate and class_mix: must be finite")
        if self.background_rate < 0:
            raise ScenarioError("[traffic] background_rate: must be >= 0")
        if abs(sum(self.class_mix) - 1.0) > 1e-9:
            raise ScenarioError("[traffic] class_mix: must sum to 1")
        if any(m < 0 for m in self.class_mix):
            raise ScenarioError("[traffic] class_mix: entries must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    duration_s: float = 1800.0
    seed: int = 42
    stats_interval_s: float = 60.0
    access_refresh_s: float = 1.0
    state_check_interval_s: float = 0.5
    trace: bool = False

    def __post_init__(self) -> None:
        times = (self.duration_s, self.stats_interval_s, self.access_refresh_s,
                 self.state_check_interval_s)
        if not all(map(math.isfinite, times)):
            raise ScenarioError("[run] duration_s, stats_interval_s, access_refresh_s and"
                                " state_check_interval_s: must be finite")
        if self.duration_s <= 0:
            raise ScenarioError("[run] duration_s: must be > 0")
        if self.stats_interval_s <= 0:
            raise ScenarioError("[run] stats_interval_s: must be > 0")
        if self.access_refresh_s <= 0:
            raise ScenarioError("[run] access_refresh_s: must be > 0")
        if self.state_check_interval_s <= 0:
            raise ScenarioError("[run] state_check_interval_s: must be > 0")


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationParams = field(default_factory=ConstellationParams)
    traffic: TrafficSection = field(default_factory=TrafficSection)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    congestion: CongestionConfig = field(default_factory=CongestionConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    run: RunConfig = field(default_factory=RunConfig)
    base_dir: Optional[str] = None  # scenario file location, for relative grid paths

    def __post_init__(self) -> None:
        duration = self.run.duration_s
        rate = self.traffic.background_rate + sum(f.rate for f in self.traffic.flows)
        if rate * duration > MAX_EXPECTED_EVENTS:
            raise ScenarioError(
                f"[traffic] background_rate and flows, [run] duration_s: {rate * duration:.3g}"
                f" expected packets, more than {MAX_EXPECTED_EVENTS:.0e}")
        periods = (("[routing] slot_length_s", self.routing.slot_length_s),
                   ("[run] state_check_interval_s", self.run.state_check_interval_s),
                   ("[run] access_refresh_s", self.run.access_refresh_s),
                   ("[run] stats_interval_s", self.run.stats_interval_s))
        for key, period in periods:
            if duration / period > MAX_EXPECTED_EVENTS:
                raise ScenarioError(
                    f"{key} and [run] duration_s: {duration / period:.3g} periodic events,"
                    f" more than {MAX_EXPECTED_EVENTS:.0e}")

    def load_grid(self) -> DemandGrid:
        name = self.traffic.grid_file
        if name == "default":
            text = resources.files("leoqsim.data").joinpath("default_grid.txt").read_text()
            return DemandGrid.from_text(text)
        path = Path(name)
        if not path.is_absolute() and self.base_dir:
            path = Path(self.base_dir) / path
        try:
            return DemandGrid.load(path)
        except (OSError, ValueError) as e:
            raise ScenarioError(f"[traffic] grid_file: {e}") from None


# The sections of a scenario file, in file order: the fields of ScenarioConfig
# built by a default factory (base_dir is set by the caller, not the file).
_SECTIONS = {
    f.name: f.default_factory for f in fields(ScenarioConfig) if is_dataclass(f.default_factory)
}
_TRUE = ("true", "yes", "1", "on")
_FALSE = ("false", "no", "0", "off")


def _finite(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {raw!r}")
    return x


def _parse_value(raw: str, default):
    """`raw` read as a value of the type of `default`; a tuple keeps its length."""
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low not in _TRUE + _FALSE:
            raise ValueError(f"not a boolean: {raw!r}")
        return low in _TRUE
    if isinstance(default, tuple):
        parts = raw.split()
        if len(parts) != len(default):
            raise ValueError(f"needs {len(default)} values, got {raw!r}")
        return tuple(_parse_value(x, default[0]) for x in parts)
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"not an integer: {raw!r}") from None
    if isinstance(default, float):
        return _finite(raw)
    return raw.strip()


def _parse_flows(raw: str) -> tuple[FlowSpec, ...]:
    """Flows written 'lat,lon -> lat,lon @ rate' and separated by ';'."""
    flows = []
    for text in filter(str.strip, raw.split(";")):
        src, arrow, rest = text.partition("->")
        dst, at, rate = rest.partition("@")
        src, dst = src.split(","), dst.split(",")
        if not (arrow and at) or len(src) != 2 or len(dst) != 2:
            raise ValueError(f"bad flow {text!r}, expected 'lat,lon -> lat,lon @ rate'")
        flows.append(FlowSpec(
            GeoPosition(*map(_finite, src)), GeoPosition(*map(_finite, dst)), _finite(rate)
        ))
    return tuple(flows)


def _value_to_text(value) -> str:
    """`value` as `_parse_value` reads it back (str of a float round-trips exactly)."""
    if isinstance(value, tuple):
        return " ".join(map(_value_to_text, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def _flow_to_text(f: FlowSpec) -> str:
    (slat, slon), (dlat, dlon) = f.src, f.dst
    return f"{slat},{slon} -> {dlat},{dlon} @ {f.rate}"


def _load_section(name: str, cls, items: dict[str, str]):
    """Section `name` built from its INI items; absent keys keep their defaults."""
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key, raw in items.items():
        if key not in defaults:
            raise ScenarioError(f"[{name}] {key}: unknown key")
        try:
            values[key] = _parse_flows(raw) if key == "flows" else _parse_value(raw, defaults[key])
        except ValueError as e:
            raise ScenarioError(f"[{name}] {key}: {e}") from None
    try:
        return cls(**values)
    except ScenarioError:
        raise
    except ValueError as e:
        raise ScenarioError(f"[{name}] {e}") from None


def _read_sections(text: str) -> configparser.ConfigParser:
    """`text` parsed, each section a known one (no header names "", so `[DEFAULT]` is not)."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ScenarioError(f"unparseable scenario file: {e}") from None
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"[{section}]: unknown section")
    return parser


def loads_scenario(text: str, base_dir: Optional[str] = None) -> ScenarioConfig:
    parser = _read_sections(text)
    sections = {
        name: _load_section(name, cls, dict(parser[name]) if parser.has_section(name) else {})
        for name, cls in _SECTIONS.items()
    }
    return ScenarioConfig(**sections, base_dir=base_dir)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Emit INI text, every key of every section, that loads back to an equal
    config (base_dir excepted)."""
    blocks = []
    for name in _SECTIONS:
        section = getattr(cfg, name)
        lines = [f"[{name}]"]
        for f in fields(section):
            value = getattr(section, f.name)
            if f.name == "flows":
                text = " ; ".join(map(_flow_to_text, value))
            else:
                text = _value_to_text(value)
            lines.append(f"{f.name} = {text}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def apply_overrides(cfg_text: str, overrides: list[str]) -> str:
    """Apply 'section.key=value' overrides on top of scenario text."""
    parser = _read_sections(cfg_text)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ScenarioError(f"override {item!r}: expected section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key, value = section.strip(), key.strip(), value.strip()
        if section not in _SECTIONS:
            raise ScenarioError(f"override {item!r}: unknown section [{section}]")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)  # indents a multi-line value's continuation lines
    return out.getvalue()
