"""Constellation shapes other than the default 6x11, drawn by hypothesis over
planes, satellites per plane, inclination, RAAN spread and elevation mask:
each shell's link graph, access rows and a short congested run must hold."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from leoqsim import engine
from leoqsim.constellation import (
    PICOSECONDS_PER_SECOND,
    SPEED_OF_LIGHT_KM_S,
    AccessResolver,
    ConstellationParams,
    build_topology_snapshot,
    satellite_positions,
)
from leoqsim.scenario import loads_scenario
from leoqsim.traffic import DemandGrid
from oracles import access_row

SHELLS = st.builds(
    ConstellationParams,
    planes=st.integers(1, 8),
    sats_per_plane=st.integers(3, 14),
    inclination_deg=st.floats(30.0, 90.0),
    raan_spread_deg=st.floats(90.0, 360.0),
    min_elevation_deg=st.floats(0.0, 40.0),
)

# Every grid cell centre: a superset of the terminals the engine solves for.
TERMINALS = [DemandGrid.cell_center(r, c) for r in range(12) for c in range(24)]


def check_links(params, t):
    """The snapshot at t holds each link both ways; same-plane neighbours are
    ring edges one chord long, to within 1 ps; and the inter-plane links are
    exactly the same-slot pairs of adjacent planes, the seam excluded, with
    both ends at or below the latitude gate."""
    snap = build_topology_snapshot(params, t)
    S = params.sats_per_plane
    lats = np.degrees(np.arcsin(satellite_positions(params, t)[:, 2] / params.orbit_radius_km))
    chord_ps = (2.0 * params.orbit_radius_km * math.sin(math.pi / S)
                / SPEED_OF_LIGHT_KM_S * PICOSECONDS_PER_SECOND)
    inter = set()
    for i, row in enumerate(snap):
        for j, ps in row:
            assert (i, ps) in snap[j]
            if i // S == j // S:
                assert (j - i) % S in (1, S - 1)
                assert abs(ps - chord_ps) <= 1
            else:
                inter.add((i, j))
    gate = params.lat_threshold_deg
    expected = {
        (i, j)
        for p in range(params.planes - 1)
        for s in range(S)
        for i, j in ((p * S + s, (p + 1) * S + s), ((p + 1) * S + s, p * S + s))
        if abs(lats[i]) <= gate and abs(lats[j]) <= gate
    }
    assert inter == expected


def scenario(params):
    """A 2 s hotspot run on the shell: background load plus a 600 pkt/s flow."""
    keys = ("planes", "sats_per_plane", "inclination_deg", "raan_spread_deg", "min_elevation_deg")
    shell = "".join(f"{k} = {getattr(params, k)!r}\n" for k in keys)
    return loads_scenario(
        f"[constellation]\n{shell}"
        "[traffic]\nbackground_rate = 800\nflows = 40,-100 -> 50,10 @ 600\n"
        "[run]\nduration_s = 2\n"
    )


@settings(derandomize=True, max_examples=25, deadline=None)
@given(params=SHELLS, t=st.floats(0.0, 7200.0), q=st.integers(0, 7200))
def test_non_default_shells(params, t, q):
    check_links(params, t)
    resolver = AccessResolver(params, TERMINALS, quantum_s=1.0)
    assert resolver.row(q) == access_row(params, TERMINALS, float(q))
    cfg = scenario(params)
    assert cfg.constellation == params
    report = engine.run(cfg)
    assert report.generated_total() > 0
    assert engine.conservation_audit(report)
