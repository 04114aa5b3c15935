import math
import random

import pytest

from leoqsim.congestion import CongestionConfig, CongestionLabel, NodeCongestionState
from oracles import CongestionReference

CFG = CongestionConfig(alpha=250.0, beta=450.0, window_s=1.0)


def loaded_state(rate, cfg=CFG):
    """A state whose window, ending at t = window_s, holds `rate` arrivals/s."""
    st = NodeCongestionState()
    n = round(rate * cfg.window_s)
    for k in range(n):
        st.record_arrival(cfg.window_s * (k + 1) / n, cfg)
    return st


def classify(rate):
    """The label a satellite gets at `rate` arrivals/s, measured over a 10 s
    window so that rates with one decimal are whole arrival counts. A label
    leaves the node only in a notification, so the rule runs once as last
    notified Idle and once as Busy: Busy is broadcast from the first, Idle
    from the second, and Transition from neither."""
    cfg = CongestionConfig(alpha=CFG.alpha, beta=CFG.beta, window_s=10.0)
    sent = []
    for last_notified in (CongestionLabel.IDLE, CongestionLabel.BUSY):
        st = loaded_state(rate, cfg)
        st.last_notified = last_notified
        n = st.evaluate(cfg.window_s, cfg)
        if n is not None:
            assert n.rate == rate
            sent.append(n.label)
    assert len(sent) <= 1
    return sent[0] if sent else CongestionLabel.TRANSITION


# Thresholds no rate in these tests reaches: every rule run finds Idle, so a
# node last notified Busy broadcasts the rate it measured.
RATE_CFG = CongestionConfig(alpha=1e9, beta=2e9, window_s=1.0)


def measured_rate(st, t):
    """The rate `st`'s rule measures at time t under RATE_CFG."""
    st.last_notified = CongestionLabel.BUSY
    return st.evaluate(t, RATE_CFG).rate


def notification(last_notified, rate):
    """Label broadcast by a satellite whose last broadcast was `last_notified`
    when it is evaluated at `rate`, or None."""
    st = loaded_state(rate)
    st.last_notified = last_notified
    n = st.evaluate(CFG.window_s, CFG)
    return None if n is None else n.label


def test_config_validation():
    with pytest.raises(ValueError):
        CongestionConfig(alpha=500.0, beta=450.0)
    with pytest.raises(ValueError):
        CongestionConfig(alpha=0.0, beta=450.0)
    with pytest.raises(ValueError):
        CongestionConfig(window_s=0.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "window_s"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        CongestionConfig(**{field: value})


@pytest.mark.parametrize("cfg", [
    CFG,
    CongestionConfig(alpha=250.0, beta=450.0, window_s=0.3),  # 135 / 0.3 > 450
    CongestionConfig(alpha=1.0, beta=2.0, window_s=1e-300),
    CongestionConfig(alpha=1.0, beta=1e300, window_s=1e10),
])
def test_idle_limit_is_the_largest_count_not_above_beta(cfg):
    n = cfg.idle_limit
    assert n / cfg.window_s <= cfg.beta
    assert n == 2**52 or (n + 1) / cfg.window_s > cfg.beta


@pytest.mark.parametrize("cfg", [
    CFG,
    CongestionConfig(alpha=10.0, beta=20.0, window_s=0.3),  # 3 / 0.3 > 10
    CongestionConfig(alpha=250.0, beta=450.0, window_s=0.3),
    CongestionConfig(alpha=1.0, beta=2.0, window_s=1e-300),
    CongestionConfig(alpha=1.0, beta=1e300, window_s=1e10),
    CongestionConfig(alpha=1e300, beta=2e300, window_s=1e10),
])
def test_busy_floor_is_the_smallest_count_not_below_alpha(cfg):
    m = cfg.busy_floor
    assert m >= 1
    assert m == 2**52 or m / cfg.window_s >= cfg.alpha
    assert m == 1 or (m - 1) / cfg.window_s < cfg.alpha


def test_a_busy_node_runs_the_rule_where_its_cutoff_passes_keep():
    # With a 0.3 s window, t - window_s reaches tau although t < tau +
    # window_s, so the rule prunes tau at t: a deadline of tau + window_s
    # would skip this arrival and miss its Idle notification.
    cfg = CongestionConfig(alpha=10.0, beta=20.0, window_s=0.3)
    tau = 0.5709129450392925
    t = 0.8709129450392924
    assert t - cfg.window_s >= tau and t < tau + cfg.window_s
    st, ref = NodeCongestionState(), CongestionReference()
    seen = []
    for time in [tau] * 6 + [tau + 0.001, t]:
        n, want = st.record_arrival(time, cfg), ref.record_arrival(time, cfg)
        assert n == want
        assert st.last_notified is ref.last_notified
        seen.append(n and (n.label, n.rate))
    assert seen[:6] == [None] * 6
    assert seen[6] == (CongestionLabel.BUSY, 23.333333333333336)
    assert seen[7] == (CongestionLabel.IDLE, 6.666666666666667)


def test_a_steady_busy_rate_holds_at_most_two_windows():
    # An hour at 600 arrivals/s and no sweeps: the node is notified Busy once,
    # and times are pruned whenever the rule's cutoff passes `keep`.
    st = NodeCongestionState()
    seen = []
    held = 0
    for k in range(600 * 3600):
        n = st.record_arrival(k / 600.0, CFG)
        if n:
            seen.append(n.label)
        held = max(held, len(st._arrivals))
    assert seen == [CongestionLabel.BUSY]
    assert CFG.busy_floor == 250
    assert held <= 1200


def test_a_steady_sub_beta_rate_holds_at_most_the_limit():
    # An hour at 440 arrivals/s and no sweeps: stale times are pruned
    # whenever they would push the node past its limit, and it never
    # notifies.
    st = NodeCongestionState()
    held = 0
    for k in range(440 * 3600):
        assert st.record_arrival(k / 440.0, CFG) is None
        held = max(held, len(st._arrivals))
    assert st.limit == CFG.idle_limit == 450
    assert held == 450


class TestClassify:
    def test_below_alpha_is_idle(self):
        assert classify(100.0) is CongestionLabel.IDLE

    def test_above_beta_is_busy(self):
        assert classify(500.0) is CongestionLabel.BUSY

    def test_between_is_transition(self):
        assert classify(300.0) is CongestionLabel.TRANSITION

    def test_boundaries_are_transition(self):
        assert classify(250.0) is CongestionLabel.TRANSITION
        assert classify(450.0) is CongestionLabel.TRANSITION

    def test_monotone_in_rate(self):
        order = {CongestionLabel.IDLE: 0, CongestionLabel.TRANSITION: 1, CongestionLabel.BUSY: 2}
        prev = -1
        for rate in [0, 50, 249.9, 250, 350, 450, 450.1, 800, 10_000]:
            cur = order[classify(float(rate))]
            assert cur >= prev
            prev = cur


class TestRateWindow:
    def test_no_arrivals_means_zero(self):
        st = NodeCongestionState()
        st.record_arrival(0.5, RATE_CFG)
        assert measured_rate(st, 2.0) == 0.0

    def test_k_arrivals_in_window(self):
        st = NodeCongestionState()
        for k in range(10):
            st.record_arrival(5.0 + k * 0.1, RATE_CFG)
        assert measured_rate(st, 5.95) == 10.0

    def test_window_is_half_open(self):
        # An arrival exactly window seconds ago has left the window.
        st = NodeCongestionState()
        st.record_arrival(1.0, RATE_CFG)
        assert measured_rate(st, 2.0) == 0.0

    def test_poisson_rate_estimate(self):
        # Monte-Carlo: Poisson arrivals at 400/s, estimates averaged over 100
        # disjoint windows must land within 3*sqrt(400) of the true rate.
        rng = random.Random(99)
        st = NodeCongestionState()
        t = 0.0
        estimates = []
        next_eval = 1.0
        while t < 100.0:
            t += rng.expovariate(400.0)
            while next_eval <= t and len(estimates) < 100:
                estimates.append(measured_rate(st, next_eval))
                next_eval += 1.0
            st.record_arrival(t, RATE_CFG)
        mean = sum(estimates) / len(estimates)
        assert abs(mean - 400.0) <= 3 * 400.0**0.5


class TestNotifications:
    def test_idle_transition_idle_is_silent(self):
        # ~300/s for one second (transition band), then silence: the
        # reference, run alongside, classifies the last rule run Idle.
        st, ref = NodeCongestionState(), CongestionReference()
        seen = []
        for k in range(300):
            t = k / 300.0
            n = st.record_arrival(t, CFG)
            assert ref.record_arrival(t, CFG) is None
            if n:
                seen.append(n)
        n = st.evaluate(3.0, CFG)
        assert ref.evaluate(3.0, CFG) is None
        if n:
            seen.append(n)
        assert ref.label is CongestionLabel.IDLE
        assert st.last_notified is CongestionLabel.IDLE
        assert seen == []

    def test_busy_crossing_notifies_once(self):
        st = NodeCongestionState()
        seen = []
        for k in range(600):
            n = st.record_arrival(k / 600.0, CFG)
            if n:
                seen.append(n)
        assert len(seen) == 1
        assert seen[0].label is CongestionLabel.BUSY
        assert st.last_notified is CongestionLabel.BUSY
        # staying busy produces no duplicates
        for k in range(600):
            n = st.record_arrival(1.0 + k / 600.0, CFG)
            assert n is None

    def test_busy_then_idle_roundtrip(self):
        st = NodeCongestionState()
        seen = []
        for k in range(600):
            n = st.record_arrival(k / 600.0, CFG)
            if n:
                seen.append(n)
        n = st.evaluate(5.0, CFG)
        seen.append(n)
        assert [x.label for x in seen] == [CongestionLabel.BUSY, CongestionLabel.IDLE]
        assert st.last_notified is CongestionLabel.IDLE

    def test_notifications_alternate(self):
        # Under an arbitrary rate trace the notification stream must alternate.
        rng = random.Random(17)
        st = NodeCongestionState()
        labels = []
        t = 0.0
        for _ in range(200):
            burst_rate = rng.choice([50, 200, 350, 600, 900])
            for _ in range(burst_rate // 4):
                t += 4.0 / burst_rate
                n = st.record_arrival(t, CFG)
                if n:
                    labels.append(n.label)
        for a, b in zip(labels, labels[1:]):
            assert a is not b

    def test_maybe_notify_matrix(self):
        B, I = CongestionLabel.BUSY, CongestionLabel.IDLE
        busy, idle, transition = 500.0, 100.0, 300.0
        assert notification(I, busy) is B
        assert notification(B, idle) is I
        assert notification(B, busy) is None
        assert notification(I, idle) is None
        assert notification(I, transition) is None
        assert notification(B, transition) is None
