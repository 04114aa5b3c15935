"""Per-satellite arrival-rate tracking and busy/idle classification.

Each satellite estimates its packet arrival rate over a sliding window and is
labelled Idle below the idle threshold, Busy above the busy threshold, and
Transition in between. Only Busy/Idle crossings are broadcast; the transition
band acts as hysteresis so neighbours and the route center never see flapping.

An arrival only appends its time. The rule (`evaluate`: prune the window,
divide, classify, notify) runs on an arrival only when a crossing is
possible, and it then notifies exactly when running it on every arrival
would. The rule prunes before it counts, so it sees the same window whether
or not stale times were left behind. Each rule run sets the two bounds that
the next arrivals test:
- While the last notified label is Idle, `limit` is the largest count whose
  rate is not above beta. The held times are the window's times plus,
  perhaps, stale ones, so a node holding at most `limit` has a rate of at
  most beta (float division is monotone), and an Idle-notified node at that
  rate is Idle or Transition, neither of which is broadcast. `keep` is -inf.
- While it is Busy, `limit` is -1 and `keep` is the m-th most recent time
  held after the run, where m (`busy_floor`) is the smallest count whose
  rate is at least alpha; `keep` is -inf when fewer than m are held. An
  arrival at t with `t - window_s < keep` cannot leave Busy: the rule's
  cutoff is that same expression and is monotone in t, so it would keep
  `keep` and the m - 1 times after it, a rate of at least alpha. That is
  Busy or Transition, neither of which is broadcast. The test must be made
  on the cutoff itself: `t < keep + window_s` rounds differently, and with
  a 0.3 s window it skips the arrival at 0.8709129450392924 that prunes
  0.5709129450392925.
Between calls an Idle-notified node holds at most `limit` times, or its
window count when that is larger. A Busy-notified node holds at most the
times of two windows: `keep` lies in the window of its last rule run, and
the first arrival a window after `keep` runs the rule again. Memory stays
bounded without sweeps.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional


class CongestionLabel(Enum):
    IDLE = "idle"
    TRANSITION = "transition"
    BUSY = "busy"


# Module names for the members: reading an attribute of an Enum class costs
# several times a global lookup, and the labels are compared on every rule run.
_IDLE, _TRANSITION, _BUSY = CongestionLabel.IDLE, CongestionLabel.TRANSITION, CongestionLabel.BUSY

# Counts past this are never held, so `idle_limit` and `busy_floor` stop here.
_MAX_LIMIT = 1 << 52


@dataclass(frozen=True)
class CongestionConfig:
    alpha: float = 250.0  # idle threshold, packets/s
    beta: float = 450.0  # busy threshold, packets/s
    window_s: float = 1.0  # rate-estimation horizon

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.alpha, self.beta, self.window_s))):
            raise ValueError("alpha, beta and window_s must be finite")
        if not 0.0 < self.alpha < self.beta:
            raise ValueError("thresholds must satisfy 0 < alpha < beta")
        if self.window_s <= 0.0:
            raise ValueError("window_s must be > 0")

    @cached_property
    def idle_limit(self) -> int:
        """The largest arrival count n with `n / window_s <= beta`, in the
        float division the rule uses (at most 2**52)."""
        window, beta = self.window_s, self.beta
        n = int(min(beta * window, _MAX_LIMIT))  # the product may overflow to inf
        while n / window > beta:
            n -= 1
        while n < _MAX_LIMIT and (n + 1) / window <= beta:
            n += 1
        return n

    @cached_property
    def busy_floor(self) -> int:
        """The smallest arrival count m >= 1 with `m / window_s >= alpha`, in
        the float division the rule uses (at most 2**52)."""
        window, alpha = self.window_s, self.alpha
        m = int(min(max(alpha * window, 1.0), _MAX_LIMIT))  # the product may overflow to inf
        while m > 1 and (m - 1) / window >= alpha:
            m -= 1
        while m < _MAX_LIMIT and m / window < alpha:
            m += 1
        return m


class Notification(NamedTuple):
    time: float
    label: CongestionLabel  # BUSY or IDLE only
    rate: float


class NodeCongestionState:
    """Arrival timestamps plus the hysteresis state.

    `last_notified` is the externally visible busy/idle view that routing
    reacts to. A rule run's rate and label are not kept: they leave the node
    only in the notification of a crossing, which names no satellite: the
    caller knows whose state it asked.
    """

    __slots__ = ("last_notified", "limit", "keep", "_arrivals")

    def __init__(self):
        self.last_notified = _IDLE
        self.limit = -1  # held times above which an arrival runs the rule
        self.keep = -math.inf  # a time whose presence in the window rules out Idle
        self._arrivals: deque[float] = deque()

    def record_arrival(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        """Count one arrival at time t; t must be non-decreasing. Runs the
        rule when the node then holds more than `limit` times and the rule's
        cutoff has reached `keep`, and returns its notification."""
        arrivals = self._arrivals
        arrivals.append(t)
        if len(arrivals) > self.limit and t - cfg.window_s >= self.keep:
            return self.evaluate(t, cfg)
        return None

    def evaluate(self, t: float, cfg: CongestionConfig) -> Optional[Notification]:
        """Run the rule at time t, counting no arrival; returns a
        notification on a busy/idle crossing.

        The rate is the number of arrivals in (t - window_s, t] over
        window_s. It is classified Busy above beta, Idle below alpha and
        Transition otherwise (both boundaries included). Only a Busy or Idle
        label that differs from the last notified one is broadcast.
        """
        arrivals = self._arrivals
        window = cfg.window_s
        cutoff = t - window
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        rate = len(arrivals) / window
        if rate > cfg.beta:
            label = _BUSY
        elif rate < cfg.alpha:
            label = _IDLE
        else:
            label = _TRANSITION
        if label is self.last_notified or label is _TRANSITION:
            notif = None
        else:
            self.last_notified = label
            notif = Notification(t, label, rate)
        if self.last_notified is _IDLE:
            self.limit = cfg.idle_limit
            self.keep = -math.inf
        else:
            self.limit = -1
            m = cfg.busy_floor
            self.keep = arrivals[-m] if len(arrivals) >= m else -math.inf
        return notif
