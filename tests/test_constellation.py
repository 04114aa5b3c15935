import math
import random

import numpy as np
import pytest

from leoqsim.constellation import (
    EARTH_RADIUS_KM,
    MU_EARTH_KM3_S2,
    PICOSECONDS_PER_SECOND,
    SPEED_OF_LIGHT_KM_S,
    SIDEREAL_DAY_S,
    AccessResolver,
    ConstellationParams,
    GeoPosition,
    OrbitGeometry,
    SatelliteId,
    build_topology_snapshot,
    orbital_elements,
    satellite_positions,
)
from oracles import (
    OrbitGeometryReference,
    access_satellite,
    elevation_deg,
    index_of,
    orbital_period_s,
    subsatellite_point,
)

PARAMS = ConstellationParams()
REFERENCE = OrbitGeometryReference(PARAMS, [])
LARGE_SHELL = ConstellationParams(planes=24, sats_per_plane=40, phase_offset_deg=4.5)


def satellite_ids(params):
    return [params.sid_of(i) for i in range(params.num_sats)]


def sat_xyz(sid, t, geometry=REFERENCE, params=PARAMS):
    return np.array(geometry.sat_xyz(index_of(params, sid), t))


def links(snap, i):
    """(neighbour SatelliteId, delay_ps) for every link of satellite index i
    in a neighbour table of PARAMS."""
    return [(PARAMS.sid_of(j), ps) for j, ps in snap[i]]


def intra_plane(snap, sid):
    return [n for n, _ in links(snap, index_of(PARAMS, sid)) if n.plane == sid.plane]


def inter_plane(snap, sid):
    return [n for n, _ in links(snap, index_of(PARAMS, sid)) if n.plane != sid.plane]


def test_default_shape():
    assert PARAMS.num_sats == 66
    assert PARAMS.orbit_radius_km == pytest.approx(7151.0)


def test_orbital_period_matches_kepler():
    # Independent evaluation of Kepler's third law for the 780 km shell.
    a = EARTH_RADIUS_KM + 780.0
    expected = 2.0 * math.pi * math.sqrt(a**3 / MU_EARTH_KM3_S2)
    assert expected == pytest.approx(6018.0, abs=1.0)
    assert 2.0 * math.pi / PARAMS.mean_motion_rad_s == pytest.approx(expected, rel=1e-12)


def test_initial_phase_convention():
    # Satellite (0, 0) starts at its ascending node: latitude 0, phase 0.
    xyz = sat_xyz(SatelliteId(0, 0), 0.0)
    assert subsatellite_point(PARAMS, 0, 0.0).lat_deg == pytest.approx(0.0, abs=1e-9)
    assert xyz[0] == pytest.approx(PARAMS.orbit_radius_km)
    assert xyz[1] == pytest.approx(0.0, abs=1e-9)
    assert xyz[2] == pytest.approx(0.0, abs=1e-9)


def test_position_on_sphere_and_phase_spacing():
    rng = random.Random(7)
    for _ in range(20):
        sid = SatelliteId(rng.randrange(6), rng.randrange(11))
        t = rng.uniform(0, 20000)
        xyz = sat_xyz(sid, t)
        assert np.linalg.norm(xyz) == pytest.approx(PARAMS.orbit_radius_km, abs=1e-9)
    # Consecutive satellites of a plane are separated by 360/S degrees of phase:
    # their chord equals 2 r sin(pi/S).
    a = sat_xyz(SatelliteId(2, 3), 500.0)
    b = sat_xyz(SatelliteId(2, 4), 500.0)
    chord = 2.0 * PARAMS.orbit_radius_km * math.sin(math.pi / 11)
    assert np.linalg.norm(a - b) == pytest.approx(chord, abs=1e-9)


def test_raan_spread_even():
    # Ascending nodes evenly spread over 180 degrees: 30 degrees apart, one
    # per plane.
    raan, _ = orbital_elements(PARAMS)
    for i, omega in enumerate(raan.tolist()):
        assert math.degrees(omega) == pytest.approx(30.0 * (i // 11))


def test_periodicity():
    T = orbital_period_s(PARAMS)
    for sid in (SatelliteId(0, 0), SatelliteId(3, 7), SatelliteId(5, 10)):
        p0 = sat_xyz(sid, 123.0)
        p1 = sat_xyz(sid, 123.0 + T)
        assert np.linalg.norm(p0 - p1) < 1e-6


def test_vectorized_positions_match_scalar():
    # The event loop's scalar path and the vectorised whole-constellation path
    # compute the same orbits in different operation orders.
    rng = random.Random(19)
    for params in (PARAMS, LARGE_SHELL):
        geometry = OrbitGeometryReference(params, [])
        for _ in range(10):
            t = rng.uniform(0, 3 * orbital_period_s(params))
            pos = satellite_positions(params, t)
            for i in range(params.num_sats):
                assert np.allclose(pos[i], geometry.sat_xyz(i, t), rtol=0, atol=1e-9)


class TestTopologySnapshot:
    def test_isl_ring_always_present(self):
        for t in (0.0, 900.0, 3333.3):
            snap = build_topology_snapshot(PARAMS, t)
            for sid in satellite_ids(PARAMS):
                isl = intra_plane(snap, sid)
                assert len(isl) == 2
                expect = {
                    SatelliteId(sid.plane, (sid.slot + 1) % 11),
                    SatelliteId(sid.plane, (sid.slot - 1) % 11),
                }
                assert set(isl) == expect

    def test_isl_delay_matches_chord_and_is_constant(self):
        # Independent chord geometry: 2 r sin(pi/S) ~ 4029 km -> ~13.4 ms.
        chord = 2.0 * (EARTH_RADIUS_KM + 780.0) * math.sin(math.pi / 11)
        assert chord == pytest.approx(4029.3, abs=0.5)
        expected_delay = chord / SPEED_OF_LIGHT_KM_S
        assert expected_delay == pytest.approx(13.44e-3, abs=0.01e-3)
        a, b = index_of(PARAMS, SatelliteId(1, 2)), index_of(PARAMS, SatelliteId(1, 3))

        def delay_ps(snap):
            return dict(snap[a])[b]

        d0 = delay_ps(build_topology_snapshot(PARAMS, 0.0))
        assert abs(d0 - expected_delay * PICOSECONDS_PER_SECOND) <= 1
        for t in (250.0, 1234.5, 5000.0):
            assert abs(delay_ps(build_topology_snapshot(PARAMS, t)) - d0) <= 1

    def test_symmetry(self):
        snap = build_topology_snapshot(PARAMS, 432.1)
        for i, row in enumerate(snap):
            for j, ps in row:
                assert (i, ps) in snap[j]

    def test_no_iol_across_seam(self):
        for t in np.linspace(0, orbital_period_s(PARAMS), 23):
            snap = build_topology_snapshot(PARAMS, float(t))
            for sid in satellite_ids(PARAMS):
                for n in inter_plane(snap, sid):
                    assert abs(sid.plane - n.plane) == 1
                    assert sid.slot == n.slot

    def test_no_iol_above_latitude_threshold(self):
        # Scan for a satellite above 60 degrees and check it carries no IOL.
        found_high = False
        for t in np.linspace(0, orbital_period_s(PARAMS), 40):
            snap = build_topology_snapshot(PARAMS, float(t))
            pos = satellite_positions(PARAMS, float(t))
            lats = np.degrees(np.arcsin(pos[:, 2] / PARAMS.orbit_radius_km))
            for i, lat in enumerate(lats):
                if abs(lat) > PARAMS.lat_threshold_deg:
                    found_high = True
                    assert inter_plane(snap, PARAMS.sid_of(i)) == []
        assert found_high

    def test_iol_count_at_most_two(self):
        for t in (0.0, 700.0, 2900.0):
            snap = build_topology_snapshot(PARAMS, t)
            for sid in satellite_ids(PARAMS):
                assert len(inter_plane(snap, sid)) <= 2

    def test_connected_at_sampled_times(self):
        rng = random.Random(11)
        for _ in range(100):
            t = rng.uniform(0, 2 * orbital_period_s(PARAMS))
            snap = build_topology_snapshot(PARAMS, t)
            seen = {0}
            stack = [0]
            while stack:
                v = stack.pop()
                for j, _ in snap[v]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert len(seen) == PARAMS.num_sats


class TestAccess:
    def test_user_beneath_satellite(self):
        sid = SatelliteId(2, 5)
        t = 321.0
        user = subsatellite_point(PARAMS, index_of(PARAMS, sid), t)
        assert access_satellite(user, PARAMS, t) == sid
        resolver = AccessResolver(PARAMS, [user], quantum_s=1.0)
        assert resolver.access_index(0, t) == index_of(PARAMS, sid)
        assert elevation_deg(user, sat_xyz(sid, t), t) == pytest.approx(90.0, abs=1e-6)

    def test_degenerate_threshold_returns_none(self):
        params = ConstellationParams(min_elevation_deg=90.0)
        rng = random.Random(3)
        users = [GeoPosition(rng.uniform(-80, 80), rng.uniform(-180, 180)) for _ in range(50)]
        resolver = AccessResolver(params, users, quantum_s=1.0)
        for h in range(len(users)):
            assert resolver.access_index(h, rng.uniform(0, 6000)) == -1

    def test_global_coverage(self):
        # 1000 random (user, t) samples must all find an access satellite.
        rng = random.Random(42)
        for _ in range(1000):
            lat = math.degrees(math.asin(rng.uniform(-1, 1)))  # uniform on the sphere
            lon = rng.uniform(-180, 180)
            t = rng.uniform(0, 2 * orbital_period_s(PARAMS))
            assert access_satellite(GeoPosition(lat, lon), PARAMS, t) is not None

    def test_resolver_matches_direct_computation(self):
        users = [GeoPosition(-56.0, 26.0), GeoPosition(65.2, -58.0), GeoPosition(0.0, 0.0)]
        resolver = AccessResolver(PARAMS, users, quantum_s=1.0)
        for t in (0.0, 17.0, 600.0, 1799.0, 17.0):
            for h, u in enumerate(users):
                assert PARAMS.sid_of(resolver.access_index(h, t)) == access_satellite(u, PARAMS, t)

    def test_resolver_quantizes_time(self):
        user = GeoPosition(10.0, 20.0)
        resolver = AccessResolver(PARAMS, [user], quantum_s=1.0)
        assert resolver.access_index(0, 5.2) == resolver.access_index(0, 5.9)
        assert PARAMS.sid_of(resolver.access_index(0, 5.2)) == access_satellite(user, PARAMS, 5.0)


def test_pair_delay_consistent_with_snapshot():
    # The per-hop link delay and the snapshot's route-table weight agree to
    # within the picosecond rounding of the weight.
    rng = random.Random(23)
    for params in (PARAMS, LARGE_SHELL):
        geometry = OrbitGeometry(params, [])
        for _ in range(5):
            t = rng.uniform(0, 2 * orbital_period_s(params))
            snap = build_topology_snapshot(params, t)
            for i, row in enumerate(snap):
                for j, ps in row:
                    assert abs(geometry.link_delay(i, j, t) * PICOSECONDS_PER_SECOND - ps) <= 1


# Ground terminals every 20 degrees of latitude and 45 of longitude.
LATTICE = [GeoPosition(lat, lon) for lat in range(-80, 81, 20) for lon in range(-180, 180, 45)]


@pytest.mark.parametrize("params", [PARAMS, LARGE_SHELL], ids=["default", "large_shell"])
def test_bound_delays_equal_the_reference_exactly(params):
    # The closures keep the reference's operation order, so every delay is
    # the same double: over every link of several snapshots, and over every
    # (terminal, satellite) pair at t = 0 and about a sidereal day on. Fewer
    # pairs would not do: writing `x * x` for `x ** 2` changes 3 of these
    # 14,256 slant delays on the default shell and 59 of 207,360 on the
    # large one.
    geometry = OrbitGeometry(params, LATTICE)
    reference = OrbitGeometryReference(params, LATTICE)
    rng = random.Random(41)
    for t in [0.0] + [rng.uniform(0, 3 * orbital_period_s(params)) for _ in range(4)]:
        snap = build_topology_snapshot(params, t)
        for i, row in enumerate(snap):
            for j, _ in row:
                assert geometry.link_delay(i, j, t) == reference.link_delay(i, j, t)
    for t in (0.0, SIDEREAL_DAY_S - 0.25, SIDEREAL_DAY_S + rng.random()):
        for terminal in range(len(LATTICE)):
            for sat in range(params.num_sats):
                assert geometry.slant_delay(terminal, sat, t) == \
                    reference.slant_delay(terminal, sat, t)


def test_ground_slant_delay_bounds():
    # Slant range lies between the altitude (nadir) and the horizon distance.
    sid = SatelliteId(1, 4)
    idx = index_of(PARAMS, sid)
    t = 250.0
    under = subsatellite_point(PARAMS, idx, t)
    far = GeoPosition(under.lat_deg + 15.0, under.lon_deg)
    geometry = OrbitGeometry(PARAMS, [under, far])
    d_nadir = geometry.slant_delay(0, idx, t)
    assert d_nadir == pytest.approx(780.0 / SPEED_OF_LIGHT_KM_S, rel=1e-6)
    assert geometry.slant_delay(1, idx, t) > d_nadir
