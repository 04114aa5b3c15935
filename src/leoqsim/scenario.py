"""Scenario configuration: typed sections, INI-style files, strict validation.

Every key is validated before a run starts; unknown sections or keys are
rejected so typos cannot silently fall back to defaults. `serialize` emits a
file that parses back to an equal config.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .congestion import CongestionConfig
from .constellation import ConstellationParams, GeoPosition
from .traffic import DemandGrid, FlowSpec

STRATEGIES = ("composite", "pqwrr_only")


class ScenarioError(ValueError):
    """A named configuration key failed validation."""


@dataclass(frozen=True)
class SchedulerConfig:
    service_rate: float = 500.0  # packets/s
    weights: tuple[int, int, int] = (4, 2, 1)
    buffer_capacity: int = 50  # packets
    buffer_scope: str = "per_queue"
    channel_rate: float = 10_000.0  # per-link transmitter, packets/s

    def __post_init__(self) -> None:
        if self.service_rate <= 0:
            raise ScenarioError("[scheduler] service_rate: must be > 0")
        w2, w1, w0 = self.weights
        if not (w2 > w1 > w0 >= 1):
            raise ScenarioError("[scheduler] weights: must be strictly decreasing and >= 1")
        if self.buffer_capacity < 0:
            raise ScenarioError("[scheduler] buffer_capacity: must be >= 0")
        if self.buffer_scope not in ("per_queue", "per_node"):
            raise ScenarioError("[scheduler] buffer_scope: must be per_queue or per_node")
        if self.channel_rate <= 0:
            raise ScenarioError("[scheduler] channel_rate: must be > 0")


@dataclass(frozen=True)
class RoutingConfig:
    slot_length_s: float = 60.0
    strategy: str = "composite"
    wait_queue_capacity: int = 1000
    dump_routes: bool = False

    def __post_init__(self) -> None:
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

    def load_grid(self) -> DemandGrid:
        name = self.traffic.grid_file
        if name == "default":
            text = resources.files("leoqsim.data").joinpath("default_grid.txt").read_text()
            return DemandGrid.from_text(text)
        path = Path(name)
        if not path.is_absolute() and self.base_dir:
            path = Path(self.base_dir) / path
        return DemandGrid.load(path)


_FLOW_RE = re.compile(
    r"^\s*(?P<slat>-?[\d.]+)\s*,\s*(?P<slon>-?[\d.]+)\s*->\s*"
    r"(?P<dlat>-?[\d.]+)\s*,\s*(?P<dlon>-?[\d.]+)\s*@\s*(?P<rate>[\d.]+)\s*$"
)


def _parse_flow(text: str) -> FlowSpec:
    m = _FLOW_RE.match(text)
    if not m:
        raise ScenarioError(
            f"[traffic] flows: bad flow {text!r}, expected 'lat,lon -> lat,lon @ rate'"
        )
    return FlowSpec(
        src=GeoPosition(float(m["slat"]), float(m["slon"])),
        dst=GeoPosition(float(m["dlat"]), float(m["dlon"])),
        rate=float(m["rate"]),
    )


def _flow_to_text(f: FlowSpec) -> str:
    return (
        f"{f.src.lat_deg:g},{f.src.lon_deg:g} -> "
        f"{f.dst.lat_deg:g},{f.dst.lon_deg:g} @ {f.rate:g}"
    )


class _Section:
    """One INI section with typed getters that consume keys."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = dict(items)

    def _take(self, key: str) -> Optional[str]:
        return self.items.pop(key, None)

    def get_float(self, key: str, default: float) -> float:
        raw = self._take(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ScenarioError(f"[{self.name}] {key}: not a number: {raw!r}") from None

    def get_int(self, key: str, default: int) -> int:
        raw = self._take(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ScenarioError(f"[{self.name}] {key}: not an integer: {raw!r}") from None

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self._take(key)
        if raw is None:
            return default
        low = raw.strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ScenarioError(f"[{self.name}] {key}: not a boolean: {raw!r}")

    def get_str(self, key: str, default: str) -> str:
        raw = self._take(key)
        return default if raw is None else raw.strip()

    def get_floats(self, key: str, default: tuple) -> tuple:
        raw = self._take(key)
        if raw is None:
            return default
        try:
            return tuple(float(x) for x in raw.split())
        except ValueError:
            raise ScenarioError(f"[{self.name}] {key}: not a list of numbers: {raw!r}") from None

    def get_ints(self, key: str, default: tuple) -> tuple:
        raw = self._take(key)
        if raw is None:
            return default
        try:
            return tuple(int(x) for x in raw.split())
        except ValueError:
            raise ScenarioError(f"[{self.name}] {key}: not a list of integers: {raw!r}") from None

    def reject_leftovers(self) -> None:
        if self.items:
            key = sorted(self.items)[0]
            raise ScenarioError(f"[{self.name}] {key}: unknown key")


_KNOWN_SECTIONS = ("constellation", "traffic", "scheduler", "congestion", "routing", "run")


def loads_scenario(text: str, base_dir: Optional[str] = None) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ScenarioError(f"unparseable scenario file: {e}") from None
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ScenarioError(f"[{section}]: unknown section")

    def sec(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if parser.has_section(name) else {})

    s = sec("constellation")
    try:
        constellation = ConstellationParams(
            planes=s.get_int("planes", 6),
            sats_per_plane=s.get_int("sats_per_plane", 11),
            altitude_km=s.get_float("altitude_km", 780.0),
            inclination_deg=s.get_float("inclination_deg", 86.4),
            lat_threshold_deg=s.get_float("lat_threshold_deg", 60.0),
            min_elevation_deg=s.get_float("min_elevation_deg", 8.2),
            raan_spread_deg=s.get_float("raan_spread_deg", 180.0),
            phase_offset_deg=s.get_float("phase_offset_deg", 360.0 / 22),
        )
    except ValueError as e:
        raise ScenarioError(f"[constellation] {e}") from None
    s.reject_leftovers()

    s = sec("traffic")
    flows_raw = s.get_str("flows", "")
    flows = tuple(_parse_flow(part) for part in flows_raw.split(";") if part.strip())
    mix = s.get_floats("class_mix", (0.25, 0.25, 0.25, 0.25))
    if len(mix) != 4:
        raise ScenarioError("[traffic] class_mix: needs 4 fractions (A B2 B1 B0)")
    traffic = TrafficSection(
        background_rate=s.get_float("background_rate", 800.0),
        grid_file=s.get_str("grid_file", "default"),
        class_mix=mix,
        flows=flows,
        count_uplink_in_rate=s.get_bool("count_uplink_in_rate", True),
    )
    s.reject_leftovers()

    s = sec("scheduler")
    weights = s.get_ints("weights", (4, 2, 1))
    if len(weights) != 3:
        raise ScenarioError("[scheduler] weights: needs 3 integers (B2 B1 B0)")
    scheduler = SchedulerConfig(
        service_rate=s.get_float("service_rate", 500.0),
        weights=weights,
        buffer_capacity=s.get_int("buffer_capacity", 50),
        buffer_scope=s.get_str("buffer_scope", "per_queue"),
        channel_rate=s.get_float("channel_rate", 10_000.0),
    )
    s.reject_leftovers()

    s = sec("congestion")
    try:
        congestion = CongestionConfig(
            alpha=s.get_float("alpha", 250.0),
            beta=s.get_float("beta", 450.0),
            window_s=s.get_float("window_s", 1.0),
        )
    except ValueError as e:
        raise ScenarioError(f"[congestion] {e}") from None
    s.reject_leftovers()

    s = sec("routing")
    routing = RoutingConfig(
        slot_length_s=s.get_float("slot_length_s", 60.0),
        strategy=s.get_str("strategy", "composite"),
        wait_queue_capacity=s.get_int("wait_queue_capacity", 1000),
        dump_routes=s.get_bool("dump_routes", False),
    )
    s.reject_leftovers()

    s = sec("run")
    run = RunConfig(
        duration_s=s.get_float("duration_s", 1800.0),
        seed=s.get_int("seed", 42),
        stats_interval_s=s.get_float("stats_interval_s", 60.0),
        access_refresh_s=s.get_float("access_refresh_s", 1.0),
        state_check_interval_s=s.get_float("state_check_interval_s", 0.5),
        trace=s.get_bool("trace", False),
    )
    s.reject_leftovers()

    return ScenarioConfig(
        constellation=constellation,
        traffic=traffic,
        scheduler=scheduler,
        congestion=congestion,
        routing=routing,
        run=run,
        base_dir=base_dir,
    )


def bundled_scenario_path(name: str):
    """Path-like handle to a scenario shipped with the package."""
    return resources.files("leoqsim.data.scenarios").joinpath(f"{name}.ini")


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Emit INI text that loads back to an equal config (base_dir excepted)."""
    c = cfg.constellation
    lines = [
        "[constellation]",
        f"planes = {c.planes}",
        f"sats_per_plane = {c.sats_per_plane}",
        f"altitude_km = {c.altitude_km!r}",
        f"inclination_deg = {c.inclination_deg!r}",
        f"lat_threshold_deg = {c.lat_threshold_deg!r}",
        f"min_elevation_deg = {c.min_elevation_deg!r}",
        f"raan_spread_deg = {c.raan_spread_deg!r}",
        f"phase_offset_deg = {c.phase_offset_deg!r}",
        "",
        "[traffic]",
        f"background_rate = {cfg.traffic.background_rate!r}",
        f"grid_file = {cfg.traffic.grid_file}",
        "class_mix = " + " ".join(repr(x) for x in cfg.traffic.class_mix),
        f"count_uplink_in_rate = {str(cfg.traffic.count_uplink_in_rate).lower()}",
    ]
    if cfg.traffic.flows:
        lines.append("flows = " + " ; ".join(_flow_to_text(f) for f in cfg.traffic.flows))
    lines += [
        "",
        "[scheduler]",
        f"service_rate = {cfg.scheduler.service_rate!r}",
        "weights = " + " ".join(str(w) for w in cfg.scheduler.weights),
        f"buffer_capacity = {cfg.scheduler.buffer_capacity}",
        f"buffer_scope = {cfg.scheduler.buffer_scope}",
        f"channel_rate = {cfg.scheduler.channel_rate!r}",
        "",
        "[congestion]",
        f"alpha = {cfg.congestion.alpha!r}",
        f"beta = {cfg.congestion.beta!r}",
        f"window_s = {cfg.congestion.window_s!r}",
        "",
        "[routing]",
        f"slot_length_s = {cfg.routing.slot_length_s!r}",
        f"strategy = {cfg.routing.strategy}",
        f"wait_queue_capacity = {cfg.routing.wait_queue_capacity}",
        f"dump_routes = {str(cfg.routing.dump_routes).lower()}",
        "",
        "[run]",
        f"duration_s = {cfg.run.duration_s!r}",
        f"seed = {cfg.run.seed}",
        f"stats_interval_s = {cfg.run.stats_interval_s!r}",
        f"access_refresh_s = {cfg.run.access_refresh_s!r}",
        f"state_check_interval_s = {cfg.run.state_check_interval_s!r}",
        f"trace = {str(cfg.run.trace).lower()}",
    ]
    return "\n".join(lines) + "\n"


def apply_overrides(cfg_text: str, overrides: list[str]) -> str:
    """Apply 'section.key=value' overrides on top of scenario text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(cfg_text)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ScenarioError(f"override {item!r}: expected section.key=value")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key, value = section.strip(), key.strip(), value.strip()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    out = []
    for section in parser.sections():
        out.append(f"[{section}]")
        for k, v in parser[section].items():
            out.append(f"{k} = {v}")
        out.append("")
    return "\n".join(out)
