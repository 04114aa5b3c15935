"""Scenario files: what the bundled and test texts parse to, which bad
inputs are rejected with a message naming the section and the key, and the
serialize/parse round trip."""

import configparser
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leoqsim.congestion import CongestionConfig
from leoqsim.constellation import ConstellationParams, GeoPosition
from leoqsim.scenario import (
    STRATEGIES,
    RoutingConfig,
    RunConfig,
    ScenarioConfig,
    ScenarioError,
    SchedulerConfig,
    TrafficSection,
    apply_overrides,
    loads_scenario,
    serialize_scenario,
)
from leoqsim.traffic import FlowSpec
from test_engine import SCENARIOS, scenario_text

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"

HOTSPOT = FlowSpec(GeoPosition(40.0, -100.0), GeoPosition(50.0, 10.0), 600.0)
BASELINE_TRAFFIC = TrafficSection(background_rate=800.0, grid_file="default")
COMPOSITE = RoutingConfig(strategy="composite")


@pytest.mark.parametrize(
    "name, expected",
    [
        ("baseline", ScenarioConfig(traffic=BASELINE_TRAFFIC, routing=COMPOSITE)),
        (
            "hotspot",
            ScenarioConfig(
                traffic=TrafficSection(background_rate=800.0, flows=(HOTSPOT,)),
                routing=COMPOSITE,
            ),
        ),
        (
            "large_shell",
            ScenarioConfig(
                constellation=ConstellationParams(
                    planes=24, sats_per_plane=40, phase_offset_deg=4.5
                ),
                traffic=BASELINE_TRAFFIC,
                routing=COMPOSITE,
            ),
        ),
    ],
)
def test_benchmark_scenarios_parse(name, expected):
    text = (BENCH_SCENARIOS / f"{name}.ini").read_text(encoding="utf-8")
    assert loads_scenario(text) == expected


# The sections test_engine.KNOBS sets; it also turns count_uplink_in_rate off.
KNOB_SECTIONS = {
    "scheduler": SchedulerConfig(weights=(5, 3, 1), buffer_capacity=20, buffer_scope="per_node"),
    "congestion": CongestionConfig(window_s=0.3),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_engine_scenarios_parse(name):
    flows, strategy, knobs = SCENARIOS[name]
    expected = ScenarioConfig(
        traffic=TrafficSection(flows=(HOTSPOT,) if flows else (), count_uplink_in_rate=not knobs),
        routing=RoutingConfig(strategy=strategy, dump_routes=True),
        run=RunConfig(duration_s=5.0, seed=42, trace=True),
        **(KNOB_SECTIONS if knobs else {}),
    )
    assert loads_scenario(scenario_text(flows, strategy, knobs)) == expected


def test_empty_text_gives_the_defaults():
    assert loads_scenario("") == ScenarioConfig()
    assert loads_scenario("", base_dir="/x") == ScenarioConfig(base_dir="/x")


def test_values_take_the_type_of_their_default():
    cfg = loads_scenario(
        "[scheduler]\nweights = 9 5 2\nbuffer_scope = per_node\n"
        "[traffic]\nclass_mix = 0.4 0.3 0.2 0.1\ncount_uplink_in_rate = off\n"
        "[congestion]\nalpha = 100\nbeta = 2e2\n"
        "[run]\nseed = -7\ntrace = YES\n"
    )
    assert cfg.scheduler.weights == (9, 5, 2)
    assert cfg.scheduler.buffer_scope == "per_node"
    assert cfg.traffic.class_mix == (0.4, 0.3, 0.2, 0.1)
    assert cfg.traffic.count_uplink_in_rate is False
    assert cfg.congestion == CongestionConfig(alpha=100.0, beta=200.0)
    assert cfg.run.seed == -7
    assert cfg.run.trace is True


# (scenario text, section, text the message must contain besides the section)
BAD_INPUTS = {
    "unknown section": ("[colour]\nred = 1\n", "colour", "unknown section"),
    "unknown key": ("[traffic]\ncolour = red\n", "traffic", "colour"),
    "seed not an integer": ("[run]\nseed = 4.2\n", "run", "seed"),
    "duration not a number": ("[run]\nduration_s = soon\n", "run", "duration_s"),
    "trace not a boolean": ("[run]\ntrace = maybe\n", "run", "trace"),
    "negative background": ("[traffic]\nbackground_rate = -1\n", "traffic", "background_rate"),
    "class_mix of 2": ("[traffic]\nclass_mix = 0.5 0.5\n", "traffic", "class_mix"),
    "weights of 2": ("[scheduler]\nweights = 2 1\n", "scheduler", "weights"),
    "weights increasing": ("[scheduler]\nweights = 1 2 3\n", "scheduler", "weights"),
    # ConstellationParams names the pair of keys as "plane" and "satellites per plane".
    "no planes": ("[constellation]\nplanes = 0\n", "constellation", "plane"),
    "alpha above beta": ("[congestion]\nalpha = 500\n", "congestion", "alpha"),
    "unknown strategy": ("[routing]\nstrategy = x\n", "routing", "strategy"),
    "malformed flow": ("[traffic]\nflows = 40,-100 50,10 @ 600\n", "traffic", "flows"),
    "duration inf": ("[run]\nduration_s = inf\n", "run", "duration_s"),
    "duration nan": ("[run]\nduration_s = nan\n", "run", "duration_s"),
    "service_rate nan": ("[scheduler]\nservice_rate = nan\n", "scheduler", "service_rate"),
    "flow not finite": ("[traffic]\nflows = 40,-100 -> 50,inf @ 600\n", "traffic", "flows"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_rejected_naming_section_and_key(case):
    text, section, needle = BAD_INPUTS[case]
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text)
    message = str(err.value)
    assert message.startswith(f"[{section}]")
    assert needle in message


SECTIONS = {f.name: f.default_factory for f in fields(ScenarioConfig) if f.name != "base_dir"}


def annotation_of(value) -> str:
    if isinstance(value, tuple):
        return f"tuple[{', '.join(map(annotation_of, value))}]"
    return type(value).__name__


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_each_default_has_the_annotated_type(name):
    """A key is read as the type of its default, so that type must be the
    annotated one: `float = 500` would make a float key reject '500.5'."""
    for f in fields(SECTIONS[name]):
        if f.name != "flows":
            assert f.type == annotation_of(f.default), f.name


def test_serialize_names_every_field_of_every_section():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(serialize_scenario(ScenarioConfig()))
    written = {name: list(parser[name]) for name in parser.sections()}
    assert written == {name: [f.name for f in fields(cls)] for name, cls in SECTIONS.items()}


FINITE = {"allow_nan": False, "allow_infinity": False}
ANY = st.floats(**FINITE)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, **FINITE)
NONNEGATIVE = st.floats(min_value=0.0, **FINITE)
FLAGS = st.booleans()
GEO = st.builds(GeoPosition, ANY, ANY)

CONFIGS = st.builds(
    ScenarioConfig,
    constellation=st.builds(
        ConstellationParams,
        planes=st.integers(1, 50),
        sats_per_plane=st.integers(3, 60),
        altitude_km=POSITIVE,
        inclination_deg=st.floats(0.0, 90.0, exclude_min=True),
        lat_threshold_deg=st.floats(0.0, 90.0),
        min_elevation_deg=ANY,
        raan_spread_deg=ANY,
        phase_offset_deg=ANY,
    ),
    traffic=st.builds(
        TrafficSection,
        background_rate=NONNEGATIVE,
        grid_file=st.text("abcxyz_./-0123456789", min_size=1),
        class_mix=st.lists(st.integers(0, 9), min_size=4, max_size=4)
        .filter(any)
        .map(lambda w: tuple(x / sum(w) for x in w)),
        flows=st.lists(st.builds(FlowSpec, GEO, GEO, NONNEGATIVE), max_size=3).map(tuple),
        count_uplink_in_rate=FLAGS,
    ),
    scheduler=st.builds(
        SchedulerConfig,
        service_rate=POSITIVE,
        weights=st.lists(st.integers(1, 99), min_size=3, max_size=3, unique=True)
        .map(lambda w: tuple(sorted(w, reverse=True))),
        buffer_capacity=st.integers(0, 10**6),
        buffer_scope=st.sampled_from(["per_queue", "per_node"]),
        channel_rate=POSITIVE,
    ),
    congestion=st.tuples(
        st.lists(POSITIVE, min_size=2, max_size=2, unique=True).map(sorted), POSITIVE
    ).map(lambda t: CongestionConfig(*t[0], window_s=t[1])),
    routing=st.builds(
        RoutingConfig,
        slot_length_s=POSITIVE,
        strategy=st.sampled_from(STRATEGIES),
        wait_queue_capacity=st.integers(0, 10**6),
        dump_routes=FLAGS,
    ),
    run=st.builds(
        RunConfig,
        duration_s=POSITIVE,
        seed=st.integers(-(2**63), 2**63),
        stats_interval_s=POSITIVE,
        access_refresh_s=POSITIVE,
        state_check_interval_s=POSITIVE,
        trace=FLAGS,
    ),
)


@settings(derandomize=True, database=None, deadline=None)
@given(CONFIGS)
@example(
    ScenarioConfig(
        traffic=TrafficSection(
            flows=(FlowSpec(GeoPosition(40.123456789, -100.0), GeoPosition(1e-05, 10.0), 600.0),)
        )
    )
)
def test_serialized_config_loads_back_equal(cfg):
    assert loads_scenario(serialize_scenario(cfg)) == cfg


@pytest.mark.parametrize(
    "text, override, needle",
    [
        ("x = 1\n", "run.seed=1", "unparseable"),
        ("[run]\nseed = 1\n", "DEFAULT.seed=2", "DEFAULT"),
        ("[run]\nseed = 1\n", "seed=2", "section.key=value"),
    ],
)
def test_bad_override_input_is_a_scenario_error(text, override, needle):
    with pytest.raises(ScenarioError, match=needle):
        apply_overrides(text, [override])


def test_override_replaces_a_key():
    text = apply_overrides("[run]\nseed = 1\n", ["run.seed=2", "routing.strategy=pqwrr_only"])
    cfg = loads_scenario(text)
    assert (cfg.run.seed, cfg.routing.strategy) == (2, "pqwrr_only")


def test_an_unreadable_grid_file_is_a_scenario_error(tmp_path):
    cfg = loads_scenario("[traffic]\ngrid_file = nope.txt\n", base_dir=str(tmp_path))
    with pytest.raises(ScenarioError, match=r"^\[traffic\] grid_file"):
        cfg.load_grid()
    (tmp_path / "bad.txt").write_text("not a grid\n", encoding="utf-8")
    cfg = loads_scenario("[traffic]\ngrid_file = bad.txt\n", base_dir=str(tmp_path))
    with pytest.raises(ScenarioError, match=r"^\[traffic\] grid_file"):
        cfg.load_grid()
