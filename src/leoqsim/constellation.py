"""Walker-star constellation geometry and the time-varying link topology.

Satellites fly analytic circular orbits around a spherical Earth. Inter-plane
link availability is gated by sub-satellite latitude, and no inter-plane links
cross the counter-rotating seam between the first and last plane. All
inter-satellite geometry lives in an Earth-centered inertial frame; Earth
rotation enters only when ground positions are converted for access and
elevation computations.

Each geometric concept has one implementation here:

- `OrbitGeometry`: the scalar per-event path (one satellite position, one
  link delay, one uplink/downlink delay) that the event loop calls;
- `satellite_positions`: all satellites at once, for whole-constellation
  passes (`build_topology_snapshot`, `AccessResolver`);
- `TopologySnapshot.neighbor_table`: the link graph of one routing slot;
- `SatelliteId.__str__`: the printed name of a satellite in every export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0
MU_EARTH_KM3_S2 = 398600.44
SPEED_OF_LIGHT_KM_S = 299792.458
SIDEREAL_DAY_S = 86164.0
EARTH_ROTATION_RAD_S = 2.0 * math.pi / SIDEREAL_DAY_S

# Link weights are quantized to integer picoseconds so route computations and
# their oracles use exact arithmetic regardless of summation order.
PICOSECONDS_PER_SECOND = 10**12


class SatelliteId(NamedTuple):
    plane: int
    slot: int

    def __str__(self) -> str:
        return f"S-{self.plane}-{self.slot}"


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

    @property
    def period_s(self) -> float:
        return 2.0 * math.pi / self.mean_motion_rad_s

    def index_of(self, sid: SatelliteId) -> int:
        return sid.plane * self.sats_per_plane + sid.slot

    def sid_of(self, index: int) -> SatelliteId:
        return SatelliteId(index // self.sats_per_plane, index % self.sats_per_plane)

    def satellite_ids(self) -> Iterator[SatelliteId]:
        for p in range(self.planes):
            for s in range(self.sats_per_plane):
                yield SatelliteId(p, s)

    # Per-satellite orbital elements: ascending node and initial phase.
    def raan_rad(self, plane: int) -> float:
        return math.radians(self.raan_spread_deg) * plane / self.planes

    def initial_phase_rad(self, sid: SatelliteId) -> float:
        return (
            2.0 * math.pi * sid.slot / self.sats_per_plane
            + math.radians(self.phase_offset_deg) * sid.plane
        )


def satellite_positions(params: ConstellationParams, t: float) -> np.ndarray:
    """Inertial positions of all satellites at time t, shape (N, 3), indexed by plane*S+slot."""
    n = params.num_sats
    planes = np.arange(n) // params.sats_per_plane
    slots = np.arange(n) % params.sats_per_plane
    omega = np.radians(params.raan_spread_deg) * planes / params.planes
    u = (
        2.0 * np.pi * slots / params.sats_per_plane
        + np.radians(params.phase_offset_deg) * planes
        + params.mean_motion_rad_s * t
    )
    inc = math.radians(params.inclination_deg)
    a = params.orbit_radius_km
    cu, su = np.cos(u), np.sin(u)
    co, so = np.cos(omega), np.sin(omega)
    ci, si = math.cos(inc), math.sin(inc)
    out = np.empty((n, 3))
    out[:, 0] = a * (co * cu - so * su * ci)
    out[:, 1] = a * (so * cu + co * su * ci)
    out[:, 2] = a * su * si
    return out


class OrbitGeometry:
    """Scalar geometry for the event loop: one satellite's position and the
    propagation delay of one inter-satellite link or one ground link per call.

    Per-satellite RAAN trigonometry and initial phases are fixed at
    construction; only the phase advances with time. Ground terminals are
    fixed Earth points given at construction and addressed by their position
    in that sequence. The floating-point operation order of these methods is
    part of every exported delay, so keep it when editing them.
    """

    def __init__(self, params: ConstellationParams, ground: Sequence[GeoPosition]):
        n = params.num_sats
        self._orb_a = params.orbit_radius_km
        self._orb_n = params.mean_motion_rad_s
        self._orb_ci = math.cos(math.radians(params.inclination_deg))
        self._orb_si = math.sin(math.radians(params.inclination_deg))
        self._raan_cos = [math.cos(params.raan_rad(i // params.sats_per_plane)) for i in range(n)]
        self._raan_sin = [math.sin(params.raan_rad(i // params.sats_per_plane)) for i in range(n)]
        self._phase0 = [params.initial_phase_rad(params.sid_of(i)) for i in range(n)]
        self._ground_xyz = []
        for pos in ground:
            lat = math.radians(pos.lat_deg)
            lon = math.radians(pos.lon_deg)
            r = EARTH_RADIUS_KM
            cl = math.cos(lat)
            self._ground_xyz.append(
                (r * cl * math.cos(lon), r * cl * math.sin(lon), r * math.sin(lat))
            )

    def sat_xyz(self, idx: int, t: float) -> tuple[float, float, float]:
        """Inertial position (km) of satellite `idx` at time t."""
        u = self._phase0[idx] + self._orb_n * t
        cu, su = math.cos(u), math.sin(u)
        co, so = self._raan_cos[idx], self._raan_sin[idx]
        a, ci = self._orb_a, self._orb_ci
        return (
            a * (co * cu - so * su * ci),
            a * (so * cu + co * su * ci),
            a * su * self._orb_si,
        )

    def link_delay(self, i: int, j: int, t: float) -> float:
        """Propagation delay (s) between satellites i and j at time t."""
        cos, sin = math.cos, math.sin
        nt = self._orb_n * t
        ci, si, a = self._orb_ci, self._orb_si, self._orb_a
        u = self._phase0[i] + nt
        cu, su = cos(u), sin(u)
        co, so = self._raan_cos[i], self._raan_sin[i]
        xi = co * cu - so * su * ci
        yi = so * cu + co * su * ci
        zi = su * si
        u = self._phase0[j] + nt
        cu, su = cos(u), sin(u)
        co, so = self._raan_cos[j], self._raan_sin[j]
        dx = xi - (co * cu - so * su * ci)
        dy = yi - (so * cu + co * su * ci)
        dz = zi - su * si
        return a * math.sqrt(dx * dx + dy * dy + dz * dz) / SPEED_OF_LIGHT_KM_S

    def slant_delay(self, terminal: int, sat: int, t: float) -> float:
        """Uplink/downlink propagation delay (s) between a terminal and a satellite."""
        gx, gy, gz = self._ground_xyz[terminal]
        theta = EARTH_ROTATION_RAD_S * t
        c, s = math.cos(theta), math.sin(theta)
        ux, uy = gx * c - gy * s, gx * s + gy * c
        sx, sy, sz = self.sat_xyz(sat, t)
        d = math.sqrt((sx - ux) ** 2 + (sy - uy) ** 2 + (sz - gz) ** 2)
        return d / SPEED_OF_LIGHT_KM_S


@dataclass
class TopologySnapshot:
    """Static link graph for one routing time slot.

    `neighbor_table[i]` lists `(j, delay_ps)` for every link of satellite i,
    sorted by neighbour index; delays are integer picoseconds.
    """

    slot_index: int
    params: ConstellationParams
    neighbor_table: list[list[tuple[int, int]]] = field(repr=False)


def build_topology_snapshot(
    params: ConstellationParams, t: float, slot_index: int = 0
) -> TopologySnapshot:
    """Derive the link graph at time t.

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
    return TopologySnapshot(slot_index, params, neighbor_table)


class AccessResolver:
    """Cached access-satellite lookups on a fixed time grid.

    Terminals sit at fixed ground positions, addressed by their position in
    `ground`, so per time quantum one vectorized elevation pass covers every
    terminal. Lookup times are quantized to `quantum_s`. Only the latest
    quantum's row is kept: the event loop's lookup times never decrease, so
    memory stays O(terminals) at any horizon, and an earlier time is simply
    solved again.
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
        self._quantum: int | None = None  # quantum of `_row`
        self._row: list[int] = []  # best sat index per terminal (-1 none)
        self._min_sin_e = math.sin(math.radians(params.min_elevation_deg))

    def access_index(self, terminal: int, t: float) -> int:
        """Best satellite index for a terminal at the quantized time, or -1."""
        q = int(t / self.quantum_s)
        if q != self._quantum:
            self._row = self._solve(q)
            self._quantum = q
        return self._row[terminal]

    def _solve(self, q: int) -> list[int]:
        t = q * self.quantum_s
        sat = satellite_positions(self.params, t)  # (N, 3)
        theta = EARTH_ROTATION_RAD_S * t
        c, s = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        units = self._unit_ecef @ rot.T  # terminals in the inertial frame
        ground = units * EARTH_RADIUS_KM  # (T, 3)
        d = sat[None, :, :] - ground[:, None, :]  # (T, N, 3)
        dn = np.linalg.norm(d, axis=2)
        sin_e = np.einsum("tns,ts->tn", d, units) / dn
        best = np.argmax(sin_e, axis=1)
        ok = sin_e[np.arange(len(best)), best] >= self._min_sin_e
        return [int(b) if good else -1 for b, good in zip(best, ok)]
