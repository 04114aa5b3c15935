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
        self.label = CongestionLabel.IDLE
        self.last_notified = CongestionLabel.IDLE
        self._arrivals: deque[float] = deque()

    @property
    def is_busy(self) -> bool:
        return self.last_notified is CongestionLabel.BUSY

    def record_arrival(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        """Count one arrival at time t and re-evaluate; t must be non-decreasing."""
        self._arrivals.append(t)
        return self.evaluate(t, cfg)

    def evaluate(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        """Refresh the rate estimate at time t; returns a notification on a
        busy/idle crossing.

        The rate is classified Busy above beta, Idle below alpha and
        Transition otherwise (both boundaries included). Only a Busy or Idle
        label that differs from the last notified one is broadcast.
        """
        cutoff = t - cfg.window_s
        arrivals = self._arrivals
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        rate = len(arrivals) / cfg.window_s
        self.rate = rate
        if rate > cfg.beta:
            label = CongestionLabel.BUSY
        elif rate < cfg.alpha:
            label = CongestionLabel.IDLE
        else:
            label = CongestionLabel.TRANSITION
        self.label = label
        if label is self.last_notified or label is CongestionLabel.TRANSITION:
            return None
        self.last_notified = label
        return Notification(t, self.satellite, label, rate)
