"""One benchmark measurement: a single closed simulation job.

Runs one workload at one seed through leoqsim's public entry points in the
order `leoqsim run` uses them (loads_scenario -> Simulation(cfg) -> run() ->
stats.export -> conservation_audit) and prints one JSON object with the
timings, the modelled outcomes, the export digest and the report counters.
Timings are given raw and scaled to the reference host speed of probe.py;
a traced job is not probed during its run, so its run time is raw only.
`run.py` starts this file in a fresh interpreter for every measurement:

    PYTHONPATH=src python3 perfbench/job.py --workload baseline --seed 42 --out DIR [--trace SPANS]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = HERE / "scenarios"

# Simulated horizon per workload, chosen so that one run holds several jobs:
# host speed drifts within seconds, and a median over many short jobs follows
# it less than one over a few long ones. hotspot still raises well over a
# hundred notifications; large_shell's one pair of route-table builds at t=0
# already dominates its host time.
#
# BENCHMARK.json gates baseline and hotspot only. large_shell is memory-bound
# (pure-Python tables of ~1M entries each), and on a shared 2-core host its
# wall time swung 1.7x between minutes-long contention phases, beyond the
# largest bound a gated metric may have. Run it by name to measure large-N
# table builds and peak memory.
WORKLOADS = {"baseline": 60.0, "hotspot": 45.0, "large_shell": 20.0}

# Set-up is a few milliseconds, so each job repeats it and keeps every sample.
SETUP_REPEATS = 10


def why(workload: str) -> str:
    """The reason the workload was chosen: its scenario file's first line."""
    first = (SCENARIOS / f"{workload}.ini").read_text(encoding="utf-8").splitlines()[0]
    prefix = "# why: "
    if not first.startswith(prefix):
        raise ValueError(f"{workload}.ini must start with '{prefix}'")
    return first[len(prefix):]


def scenario_text(workload: str, seed: int, horizon_s: float | None = None) -> str:
    """The workload's scenario with the benchmark seed and horizon injected."""
    from leoqsim.scenario import apply_overrides

    horizon = WORKLOADS[workload] if horizon_s is None else horizon_s
    text = (SCENARIOS / f"{workload}.ini").read_text(encoding="utf-8")
    return apply_overrides(text, [f"run.seed={seed}", f"run.duration_s={horizon!r}"])


def export_digest(out_dir) -> tuple[str, int]:
    """sha256 over every exported file's name and bytes, and the total bytes."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(Path(out_dir).iterdir()):
        data = p.read_bytes()
        total += len(data)
        h.update(f"{p.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), total


def measure(workload: str, seed: int, out_dir, tracer=None, horizon_s=None) -> dict:
    """Run one job; with a tracer, its wrappers are installed for the job only."""
    from leoqsim import engine, scenario, stats
    from leoqsim.scheduling import B_CLASSES, DropReason, TrafficClass

    text = scenario_text(workload, seed, horizon_s)
    host = probe.Probe()
    sampler = probe.Sampler(host) if tracer is None else None
    try:
        if tracer is not None:
            tracer.install()
        raw_setup_s, setup_s = [], []
        for _ in range(SETUP_REPEATS):
            sim, raw, scaled = probe.bracket(
                host, lambda: engine.Simulation(scenario.loads_scenario(text)))
            raw_setup_s.append(raw)
            setup_s.append(scaled)
        if sampler is not None:
            sampler.start()
        try:
            t0 = time.perf_counter()
            report = sim.run()
            stats.export(report, out_dir)
            raw_wall_s = time.perf_counter() - t0
        finally:
            if sampler is not None:
                sampler.stop()
    finally:
        restored = tracer.restore() if tracer is not None else True
    if sampler is not None:
        raw_wall_s, wall_s = sampler.scale(raw_wall_s)
    else:
        wall_s = raw_wall_s
    audit = engine.conservation_audit(report)
    digest, export_bytes = export_digest(out_dir)

    A = TrafficClass.A
    gen_b = sum(report.generated[c] for c in B_CLASSES)
    dlv_b = sum(report.delivered[c] for c in B_CLASSES)
    generated = report.generated_total()
    drops = {reason: 0 for reason in DropReason}
    for (_, reason), n in report.dropped_by_reason.items():
        drops[DropReason(reason)] += n
    result = {
        "audit": audit,
        "restored": restored,
        "digest": digest,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "generated": generated,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "modelled": {
            "delivered_ratio_A": report.delivered[A] / report.generated[A],
            "delivered_ratio_B": dlv_b / gen_b,
            "p90_delay_ms_A": report.delay_cdf(A).quantile(0.9) * 1000.0,
        },
        "counters": {
            "engine.wait_enqueues": report.wait_enqueues,
            "engine.waits_per_packet": report.wait_enqueues / generated,
            "engine.backup_forwards": report.backup_forwards,
            "engine.route_wait_drops": drops[DropReason.ROUTE_WAIT_OVERFLOW],
            "scheduling.buffer_drops": drops[DropReason.BUFFER_OVERFLOW],
            "congestion.notifications": len(report.state_log),
            "stats.export_bytes": export_bytes,
        },
    }
    if tracer is not None:
        result["counters"].update(tracer.layer_metrics())
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="empty directory for the export")
    ap.add_argument("--trace", metavar="SPANS", help="trace the job; write spans here")
    args = ap.parse_args(argv)

    import leoqsim

    src = (ROOT / "src").resolve()
    if src not in Path(leoqsim.__file__).resolve().parents:
        print(f"leoqsim imported from {leoqsim.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = measure(args.workload, args.seed, args.out, tracer)
    if tracer is not None:
        tracer.write_spans(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
