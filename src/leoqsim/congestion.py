"""Per-satellite arrival-rate tracking and busy/idle classification.

Each satellite estimates its packet arrival rate over a sliding window and is
labelled Idle below the idle threshold, Busy above the busy threshold, and
Transition in between. Only Busy/Idle crossings are broadcast; the transition
band acts as hysteresis so neighbours and the route center never see flapping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from .constellation import SatelliteId


class CongestionLabel(Enum):
    IDLE = "idle"
    TRANSITION = "transition"
    BUSY = "busy"


# Module names for the members: reading an attribute of an Enum class costs
# several times a global lookup, and the labels are compared on every arrival.
_IDLE, _TRANSITION, _BUSY = CongestionLabel.IDLE, CongestionLabel.TRANSITION, CongestionLabel.BUSY


@dataclass(frozen=True)
class CongestionConfig:
    alpha: float = 250.0  # idle threshold, packets/s
    beta: float = 450.0  # busy threshold, packets/s
    window_s: float = 1.0  # rate-estimation horizon

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < self.beta:
            raise ValueError("thresholds must satisfy 0 < alpha < beta")
        if self.window_s <= 0.0:
            raise ValueError("window_s must be > 0")


class Notification(NamedTuple):
    time: float
    satellite: Optional[SatelliteId]
    label: CongestionLabel  # BUSY or IDLE only
    rate: float


class NodeCongestionState:
    """Arrival timestamps within the window plus the hysteresis labels.

    `label` tracks the instantaneous classification; `last_notified` is the
    externally visible busy/idle view that routing reacts to.
    """

    __slots__ = ("satellite", "rate", "label", "last_notified", "_arrivals")

    def __init__(self, satellite: Optional[SatelliteId] = None):
        self.satellite = satellite
        self.rate = 0.0
        self.label = _IDLE
        self.last_notified = _IDLE
        self._arrivals: deque[float] = deque()

    @property
    def is_busy(self) -> bool:
        return self.last_notified is _BUSY

    def record_arrival(
        self, t: float, cfg: CongestionConfig, arrived: bool = True
    ) -> Optional[Notification]:
        """Count one arrival at time t, then refresh the rate estimate; t must
        be non-decreasing. Returns a notification on a busy/idle crossing.

        The rate is the number of arrivals in (t - window_s, t] over
        window_s. It is classified Busy above beta, Idle below alpha and
        Transition otherwise (both boundaries included). Only a Busy or Idle
        label that differs from the last notified one is broadcast. With
        `arrived` False nothing is counted: that is `evaluate`.
        """
        arrivals = self._arrivals
        if arrived:
            arrivals.append(t)
        window = cfg.window_s
        cutoff = t - window
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        rate = len(arrivals) / window
        self.rate = rate
        if rate > cfg.beta:
            label = _BUSY
        elif rate < cfg.alpha:
            label = _IDLE
        else:
            label = _TRANSITION
        self.label = label
        if label is self.last_notified or label is _TRANSITION:
            return None
        self.last_notified = label
        return Notification(t, self.satellite, label, rate)

    # The same rule under a name of its own, so that `evaluate` reaches it
    # without going through `record_arrival`, which the benchmark's per-layer
    # wrappers count as an arrival.
    _refresh = record_arrival

    def evaluate(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        """Refresh the rate estimate at time t without counting an arrival;
        returns a notification on a busy/idle crossing."""
        return self._refresh(t, cfg, False)
