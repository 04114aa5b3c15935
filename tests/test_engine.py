"""End-to-end engine runs, pinned to the sha256 of their exports.

Each run covers 5 s at seed 42 with the packet trace and the route-table dump
switched on, so every export file is part of the digest. A change to the
engine or to any layer it calls that is meant to keep behaviour must keep
these digests; a deliberate behaviour change records the new ones.
"""

import hashlib
from pathlib import Path

import pytest

from leoqsim import engine, stats
from leoqsim.scenario import loads_scenario

HOTSPOT_FLOW = "40,-100 -> 50,10 @ 600"

SCENARIOS = {
    "baseline": ("", "composite"),
    "hotspot": (HOTSPOT_FLOW, "composite"),
    "hotspot_pqwrr_only": (HOTSPOT_FLOW, "pqwrr_only"),
}

DIGESTS = {
    "baseline": "86fef41d092b29328c35c8a1d9b67085a6135c0dcb63a636391758e484d823cf",
    "hotspot": "177ce03f24e03c112b0b1ae8f5f840518033f4b5fbbee41291fd8b00bd52e9fb",
    "hotspot_pqwrr_only": "c36ad117207acbdbb1c9a3075cbb95f37863a40a2e97cd380cf1a725f5a5ddb4",
}


def scenario_text(flows: str, strategy: str) -> str:
    lines = ["[traffic]", "background_rate = 800", "grid_file = default"]
    if flows:
        lines.append(f"flows = {flows}")
    lines += [
        "[routing]", f"strategy = {strategy}", "dump_routes = true",
        "[run]", "duration_s = 5", "seed = 42", "trace = true",
    ]
    return "\n".join(lines) + "\n"


def export_digest(out_dir) -> str:
    """sha256 over every exported file's name, length and bytes, in name order."""
    h = hashlib.sha256()
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        h.update(f"{p.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """name -> (report, [digest of the first run, digest of the second run])"""
    out = {}
    for name, (flows, strategy) in SCENARIOS.items():
        digests = []
        for k in range(2):
            report = engine.Simulation(loads_scenario(scenario_text(flows, strategy))).run()
            out_dir = tmp_path_factory.mktemp(f"{name}_{k}")
            stats.export(report, out_dir)
            digests.append(export_digest(out_dir))
        out[name] = (report, digests)
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_export_digest_is_pinned(runs, name):
    _, digests = runs[name]
    assert digests[0] == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_two_runs_export_the_same_bytes(runs, name):
    _, digests = runs[name]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_conservation_audit_holds(runs, name):
    report, _ = runs[name]
    assert report.generated_total() > 0
    assert engine.conservation_audit(report)


def test_hotspot_detours_over_the_backup_table(runs):
    composite, _ = runs["hotspot"]
    pqwrr_only, _ = runs["hotspot_pqwrr_only"]
    assert composite.state_log
    assert composite.backup_forwards > 0
    assert pqwrr_only.backup_forwards == 0
