"""Walker-star constellation geometry and the time-varying link topology.

Satellites fly analytic circular orbits around a spherical Earth. Inter-plane
link availability is gated by sub-satellite latitude, and no inter-plane links
cross the counter-rotating seam between the first and last plane. All
inter-satellite geometry lives in an Earth-centered inertial frame; Earth
rotation enters only when ground positions are converted for access and
elevation computations.

Each geometric concept has one implementation here:

- `orbital_elements`: every satellite's ascending node and initial phase;
- `OrbitGeometry`: the scalar per-event path (one link delay, one
  uplink/downlink delay) that the event loop calls;
- `satellite_positions`: all satellites at once, for whole-constellation
  passes (`build_topology_snapshot`, `AccessResolver`);
- `build_topology_snapshot`: the link graph of one routing slot, a
  neighbour table of sorted `(j, delay_ps)` pairs per satellite;
- the satellite index, plane * S + slot: the row order of every per-satellite
  array here, and how every layer knows a satellite. Only the engine's name
  table turns an index into a name, `S-<plane>-<slot>`, for the exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.44
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0
EARTH_ROTATION_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S

# Link weights are quantized to integer picoseconds so route computations and
# their oracles use exact arithmetic regardless of summation order.
PICOSECONDS_PER_SECOND = 10**12


class GeoPosition(NamedTuple):
    lat_deg: float
    lon_deg: float


@dataclass(frozen=True)
class ConstellationParams:
    """Shape and gating parameters of the constellation."""

    planes: int = 6
    sats_per_plane: int = 11
    altitude_km: float = 780.0
    inclination_deg: float = 86.4
    lat_threshold_deg: float = 60.0
    min_elevation_deg: float = 8.2
    raan_spread_deg: float = 180.0
    phase_offset_deg: float = 360.0 / (2 * 11)

    def __post_init__(self) -> None:
        floats = (self.altitude_km, self.inclination_deg, self.lat_threshold_deg,
                  self.min_elevation_deg, self.raan_spread_deg, self.phase_offset_deg)
        if not all(map(math.isfinite, floats)):
            raise ValueError("altitude_km and the *_deg angles must be finite")
        if self.planes < 1 or self.sats_per_plane < 3:
            raise ValueError("constellation needs >= 1 plane and >= 3 satellites per plane")
        if self.altitude_km <= 0:
            raise ValueError("altitude_km must be > 0")
        if not 0.0 < self.inclination_deg <= 90.0:
            raise ValueError("inclination_deg must be in (0, 90]")
        if not 0.0 <= self.lat_threshold_deg <= 90.0:
            raise ValueError("lat_threshold_deg must be in [0, 90]")

    @property
    def num_sats(self) -> int:
        return self.planes * self.sats_per_plane

    @property
    def orbit_radius_km(self) -> float:
        return EARTH_RADIUS_KM + self.altitude_km

    @property
    def mean_motion_rad_s(self) -> float:
        return math.sqrt(MU_EARTH_KM3_S2 / self.orbit_radius_km**3)


def orbital_elements(params: ConstellationParams) -> tuple[np.ndarray, np.ndarray]:
    """Ascending node (RAAN) and initial phase (rad) of every satellite,
    indexed by plane*S+slot."""
    planes, slots = np.indices((params.planes, params.sats_per_plane)).reshape(2, -1)
    raan = np.radians(params.raan_spread_deg) * planes / params.planes
    phase0 = (2.0 * np.pi * slots / params.sats_per_plane
              + np.radians(params.phase_offset_deg) * planes)
    return raan, phase0


def satellite_positions(params: ConstellationParams, t: float) -> np.ndarray:
    """Inertial positions of all satellites at time t, shape (N, 3), indexed by plane*S+slot."""
    omega, phase0 = orbital_elements(params)
    u = phase0 + params.mean_motion_rad_s * t
    inc = math.radians(params.inclination_deg)
    a = params.orbit_radius_km
    cu, su = np.cos(u), np.sin(u)
    co, so = np.cos(omega), np.sin(omega)
    ci, si = math.cos(inc), math.sin(inc)
    out = np.empty((len(u), 3))
    out[:, 0] = a * (co * cu - so * su * ci)
    out[:, 1] = a * (so * cu + co * su * ci)
    out[:, 2] = a * su * si
    return out


class OrbitGeometry:
    """Scalar geometry for the event loop: the propagation delay of one
    inter-satellite link or one ground link per call.

    Per-satellite RAAN trigonometry and initial phases are fixed at
    construction; only the phase advances with time. Ground terminals are
    fixed Earth points given at construction and addressed by their position
    in that sequence.

    `link_delay` and `slant_delay` are closures built once per instance over
    these constants and over `math.cos`, `math.sin` and `math.sqrt`, so a
    call looks up no attribute. Their floating-point operation order is part
    of every exported delay and is frozen: a change that is exact in real
    arithmetic need not be in floats (`x ** 2 != x * x` for about one double
    in 1,200 on x86-64 with glibc's `pow`). The order they were written in
    is kept by `tests/oracles.OrbitGeometryReference`, and a test checks
    them against it with `==`.
    """

    def __init__(self, params: ConstellationParams, ground: Sequence[GeoPosition]):
        orb_a = params.orbit_radius_km
        orb_n = params.mean_motion_rad_s
        ci = math.cos(math.radians(params.inclination_deg))
        si = math.sin(math.radians(params.inclination_deg))
        raan, phase0 = orbital_elements(params)
        raan_cos = [math.cos(omega) for omega in raan.tolist()]
        raan_sin = [math.sin(omega) for omega in raan.tolist()]
        phase0 = phase0.tolist()
        ground_xyz = []
        for pos in ground:
            lat = math.radians(pos.lat_deg)
            lon = math.radians(pos.lon_deg)
            r = EARTH_RADIUS_KM
            cl = math.cos(lat)
            ground_xyz.append((r * cl * math.cos(lon), r * cl * math.sin(lon), r * math.sin(lat)))
        cos, sin, sqrt = math.cos, math.sin, math.sqrt
        c_km_s = SPEED_OF_LIGHT_KM_S
        rotation = EARTH_ROTATION_RAD_S

        def link_delay(i: int, j: int, t: float) -> float:
            """Propagation delay (s) between satellites i and j at time t."""
            nt = orb_n * t
            u = phase0[i] + nt
            cu, su = cos(u), sin(u)
            co, so = raan_cos[i], raan_sin[i]
            xi = co * cu - so * su * ci
            yi = so * cu + co * su * ci
            zi = su * si
            u = phase0[j] + nt
            cu, su = cos(u), sin(u)
            co, so = raan_cos[j], raan_sin[j]
            dx = xi - (co * cu - so * su * ci)
            dy = yi - (so * cu + co * su * ci)
            dz = zi - su * si
            return orb_a * sqrt(dx * dx + dy * dy + dz * dz) / c_km_s

        def slant_delay(terminal: int, sat: int, t: float) -> float:
            """Uplink/downlink propagation delay (s) between a terminal and a satellite."""
            gx, gy, gz = ground_xyz[terminal]
            theta = rotation * t
            c, s = cos(theta), sin(theta)
            ux, uy = gx * c - gy * s, gx * s + gy * c
            u = phase0[sat] + orb_n * t
            cu, su = cos(u), sin(u)
            co, so = raan_cos[sat], raan_sin[sat]
            sx = orb_a * (co * cu - so * su * ci)
            sy = orb_a * (so * cu + co * su * ci)
            sz = orb_a * su * si
            d = sqrt((sx - ux) ** 2 + (sy - uy) ** 2 + (sz - gz) ** 2)
            return d / c_km_s

        self.link_delay = link_delay
        self.slant_delay = slant_delay


def periods_elapsed(t: float, period: float) -> int:
    """The largest k with `k * period <= t`, for t >= 0: how many events of
    the schedule period, 2 * period, ... fall at or before t. `t / period`
    may round either way, so count down from one past its floor."""
    k = int(t / period) + 1
    while k * period > t:
        k -= 1
    return k


def build_topology_snapshot(params: ConstellationParams, t: float) -> list[list[tuple[int, int]]]:
    """Derive the link graph at time t: `table[i]` lists `(j, delay_ps)` for
    every link of satellite i, sorted by neighbour index; delays are integer
    picoseconds.

    Intra-plane links are permanent ring edges. Inter-plane links join
    same-slot satellites of adjacent planes, are dropped when either endpoint
    is above the latitude threshold, and never cross the seam.
    """
    pos = satellite_positions(params, t)
    lats = np.degrees(np.arcsin(pos[:, 2] / params.orbit_radius_km))
    S = params.sats_per_plane
    neighbor_table: list[list[tuple[int, int]]] = [[] for _ in range(params.num_sats)]

    def add_edge(i: int, j: int) -> None:
        d = float(np.linalg.norm(pos[i] - pos[j]))
        delay_ps = round(d / SPEED_OF_LIGHT_KM_S * PICOSECONDS_PER_SECOND)
        neighbor_table[i].append((j, delay_ps))
        neighbor_table[j].append((i, delay_ps))

    for p in range(params.planes):
        for s in range(S):
            add_edge(p * S + s, p * S + (s + 1) % S)
    thr = params.lat_threshold_deg
    for p in range(params.planes - 1):  # seam pair (last, first) excluded
        for s in range(S):
            i, j = p * S + s, (p + 1) * S + s
            if abs(lats[i]) <= thr and abs(lats[j]) <= thr:
                add_edge(i, j)

    for row in neighbor_table:
        row.sort()
    return neighbor_table


class AccessResolver:
    """Access-satellite lookups on a fixed time grid.

    Terminals sit at fixed ground positions, addressed by their position in
    `ground`, so one vectorized elevation pass per time quantum covers every
    terminal. Quantum k starts at `k * quantum_s`, and a time t falls in the
    largest k with `k * quantum_s <= t` (`periods_elapsed`): the rule by
    which the event loop schedules its access refreshes, routing slots and
    sweeps, and by which `stats` places every record and busy episode in a
    bucket, clamped to its last. For `quantum_s = 1.0` it is `int(t)`. For
    other quanta, `int(t / quantum_s)` can differ from it within an ulp of a
    boundary (`int(3 * 0.7 / 0.7) == 2`).

    The event loop holds the current quantum's `row` and refreshes it every
    quantum. `access_index` solves the row of one time and reads one
    terminal from it; the event loop never calls it.
    """

    def __init__(
        self, params: ConstellationParams, ground: Sequence[GeoPosition], quantum_s: float = 1.0
    ):
        if quantum_s <= 0:
            raise ValueError("quantum_s must be > 0")
        self.params = params
        self.quantum_s = quantum_s
        lats = np.radians([p.lat_deg for p in ground])
        lons = np.radians([p.lon_deg for p in ground])
        cl = np.cos(lats)
        # (T, 3) unit vectors, Earth-fixed
        self._unit_ecef = np.stack([cl * np.cos(lons), cl * np.sin(lons), np.sin(lats)], axis=1)
        self._min_sin_e = math.sin(math.radians(params.min_elevation_deg))

    def access_index(self, terminal: int, t: float) -> int:
        """Best satellite index for a terminal in the quantum of time t, or -1."""
        return self.row(periods_elapsed(t, self.quantum_s))[terminal]

    def row(self, q: int) -> list[int]:
        """Best satellite index (-1 none) of every terminal in quantum q."""
        t = q * self.quantum_s
        sat = satellite_positions(self.params, t)  # (N, 3)
        theta = EARTH_ROTATION_RAD_S * t
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        units = self._unit_ecef @ rot.T  # terminals in the inertial frame
        ground = units * EARTH_RADIUS_KM  # (T, 3)
        # (T, N) differences per axis: dn adds the squares in the order of
        # np.linalg.norm over the (T, N, 3) difference, so it is bit-identical,
        # and einsum still sums the dot products in its own order.
        dx = sat[:, 0] - ground[:, 0, None]
        dy = sat[:, 1] - ground[:, 1, None]
        dz = sat[:, 2] - ground[:, 2, None]
        dn = np.sqrt(dx * dx + dy * dy + dz * dz)
        sin_e = np.einsum("tns,ts->tn", np.stack((dx, dy, dz), axis=2), units) / dn
        best = np.argmax(sin_e, axis=1)
        ok = sin_e[np.arange(len(best)), best] >= self._min_sin_e
        return np.where(ok, best, -1).tolist()
