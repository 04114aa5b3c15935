"""The paper's three claims for its composite strategy (PAPER.md): it keeps
the QoS of the different traffic classes (a), keeps low-priority traffic from
starving (b), and improves throughput (c).

(a) and (c) compare composite with `pqwrr_only` on the benchmark's hotspot
scenario, run for 45 s at seeds 42 and 7. Seeds and horizon are fixed in
advance, not chosen from results. (b) holds for the PQWRR scheduler alone,
against strict priority.
"""

from pathlib import Path

import pytest

from leoqsim import engine
from leoqsim.scenario import apply_overrides, loads_scenario
from leoqsim.scheduling import B_CLASSES, PqwrrScheduler, TrafficClass
from oracles import StrictPriorityReference, service_process
from test_scheduling import pkt

HOTSPOT = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "hotspot.ini"
SEEDS = (42, 7)
HORIZON_S = 45
STRATEGIES = ("composite", "pqwrr_only")
A = TrafficClass.A


@pytest.fixture(scope="module")
def hotspot():
    """(strategy, seed) -> the report of a 45 s hotspot run."""
    text = HOTSPOT.read_text(encoding="utf-8")
    return {
        (strategy, seed): engine.run(loads_scenario(apply_overrides(
            text, [f"routing.strategy={strategy}", f"run.seed={seed}",
                   f"run.duration_s={HORIZON_S}"])))
        for strategy in STRATEGIES
        for seed in SEEDS
    }


def delivered_ratio_b(report):
    return (sum(report.delivered[c] for c in B_CLASSES)
            / sum(report.generated[c] for c in B_CLASSES))


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_keeps_class_a_qos(hotspot, seed):
    # (a) Detouring class B traffic costs class A nothing: its delivered
    # ratio and 90th-percentile delay match those under pqwrr_only.
    composite, pqwrr_only = hotspot["composite", seed], hotspot["pqwrr_only", seed]
    assert composite.throughput_ratio(A) >= pqwrr_only.throughput_ratio(A) - 0.001
    p90 = composite.delay_cdf(A).quantile(0.9)
    assert p90 <= 1.01 * pqwrr_only.delay_cdf(A).quantile(0.9)


@pytest.mark.parametrize("seed", SEEDS)
def test_composite_delivers_at_least_as_much_class_b_traffic(hotspot, seed):
    # (c) Detouring around busy satellites carries more class B traffic than
    # queueing it on the shortest path.
    composite, pqwrr_only = hotspot["composite", seed], hotspot["pqwrr_only", seed]
    assert composite.backup_forwards > 0
    assert delivered_ratio_b(composite) >= delivered_ratio_b(pqwrr_only)


def test_pqwrr_keeps_b0_from_starving_where_strict_priority_does_not():
    # One satellite served at 500 packets/s for 2 s, offered B2 at 600/s and
    # B1 and B0 at 300/s each. B2 alone overloads it, so under strict
    # priority a B2 packet is always waiting and B0 is never served; the WRR
    # round (4, 2, 1) still gives B0 one service in seven.
    B2, B1, B0 = TrafficClass.B2, TrafficClass.B1, TrafficClass.B0
    pattern = (B2, B1, B2, B0)
    arrivals = [(k / 1200, pkt(pattern[k % 4], tag=k)) for k in range(2400)]
    served = {}
    for name, sched in (("pqwrr", PqwrrScheduler()), ("strict", StrictPriorityReference())):
        completions, _ = service_process(sched, 500.0, arrivals, horizon=2.0)
        served[name] = [p.tos for _, p in completions]
    n = len(served["pqwrr"])
    assert n == len(served["strict"]) >= 990
    assert served["strict"].count(B0) == 0
    assert served["pqwrr"].count(B0) >= n // 7 - 1
