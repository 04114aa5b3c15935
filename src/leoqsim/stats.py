"""Metric collection and CSV export: per-satellite loss series, per-class
delay series and CDFs, throughput ratios, and hop counts, all on a fixed
time-bucket grid. Foreground (tagged-flow) deliveries are tracked separately
so endpoint-to-endpoint behavior can be read off directly.

One `StatsCollector` holds a run's statistics: the event loop records into
it, `finalize` adds the residual, and the same object is the report that the
queries, `export` and `engine.conservation_audit` read."""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Optional

from .congestion import Notification
from .constellation import SatelliteId
from .scheduling import ALL_CLASSES, DropRecord, TrafficClass

MS_PER_S = 1000.0


class DelayCdf:
    """Empirical distribution over delay samples (seconds)."""

    def __init__(self, samples):
        self.samples = sorted(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> float:
        """Smallest sample s with CDF(s) >= q; requires 0 < q <= 1."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not self.samples:
            raise ValueError("no samples")
        k = math.ceil(q * len(self.samples)) - 1
        return self.samples[max(k, 0)]

    def cdf(self, x: float) -> float:
        if not self.samples:
            return 0.0
        return bisect_right(self.samples, x) / len(self.samples)


class StatsCollector:
    """One run's statistics; after `finalize` it is the run's report."""

    def __init__(self, horizon_s: float, bucket_s: float, seed: int, strategy: str):
        self.horizon_s = horizon_s
        self.bucket_s = bucket_s
        self.seed = seed
        self.strategy = strategy
        self.n_buckets = max(1, math.ceil(horizon_s / bucket_s))
        n = self.n_buckets
        self.generated = {c: 0 for c in ALL_CLASSES}
        self.delivered = {c: 0 for c in ALL_CLASSES}
        self.dropped = {c: 0 for c in ALL_CLASSES}
        self.dropped_by_reason: dict[tuple[TrafficClass, str], int] = {}
        self.generated_bucket = {c: [0] * n for c in ALL_CLASSES}
        self.delivered_bucket = {c: [0] * n for c in ALL_CLASSES}
        self.delay_sum_bucket = {c: [0.0] * n for c in ALL_CLASSES}
        self.hop_sum_bucket = {c: [0] * n for c in ALL_CLASSES}
        self.fg_delivered_bucket = {c: [0] * n for c in ALL_CLASSES}
        self.fg_delay_sum_bucket = {c: [0.0] * n for c in ALL_CLASSES}
        self.fg_hop_sum_bucket = {c: [0] * n for c in ALL_CLASSES}
        self.delay_samples = {c: array("d") for c in ALL_CLASSES}
        self.drops_detail: dict[tuple[int, Optional[SatelliteId], TrafficClass, str], int] = {}
        self.busy_buckets: set[int] = set()
        self.state_log: list[Notification] = []
        self.backup_forwards = 0
        self.wait_enqueues = 0
        self.residual = 0  # packets still in the network at the horizon
        self.route_dump: Optional[list] = None  # (slot, src, dst, next_hop, cost_s) rows
        self.trace_rows: Optional[list] = None  # (time, event, pkt_id, class, satellite, hop)

    # -- recording, called by the event loop ---------------------------------

    def bucket_of(self, t: float) -> int:
        """The bucket holding time t; the horizon itself falls in the last."""
        b = int(t / self.bucket_s)
        return b if b < self.n_buckets else self.n_buckets - 1

    # The two per-packet recorders compute `bucket_of` in line.

    def record_generated(self, pkt) -> None:
        cls = pkt.tos
        b = int(pkt.created_at / self.bucket_s)
        if b >= self.n_buckets:
            b = self.n_buckets - 1
        self.generated[cls] += 1
        self.generated_bucket[cls][b] += 1

    def record_delivery(self, pkt, t: float) -> None:
        cls = pkt.tos
        b = int(t / self.bucket_s)
        if b >= self.n_buckets:
            b = self.n_buckets - 1
        delay = t - pkt.created_at
        self.delivered[cls] += 1
        self.delivered_bucket[cls][b] += 1
        self.delay_sum_bucket[cls][b] += delay
        self.hop_sum_bucket[cls][b] += pkt.hop
        self.delay_samples[cls].append(delay)
        if pkt.flow is not None:
            self.fg_delivered_bucket[cls][b] += 1
            self.fg_delay_sum_bucket[cls][b] += delay
            self.fg_hop_sum_bucket[cls][b] += pkt.hop

    def record_drop(self, rec: DropRecord) -> None:
        """Count one drop under its bucket, satellite, class and reason; a
        satellite of None marks a source-side (no satellite) drop."""
        cls = rec.tos
        self.dropped[cls] += 1
        reason = rec.reason.value
        key = (cls, reason)
        self.dropped_by_reason[key] = self.dropped_by_reason.get(key, 0) + 1
        dkey = (self.bucket_of(rec.time), rec.satellite, cls, reason)
        self.drops_detail[dkey] = self.drops_detail.get(dkey, 0) + 1

    def note_busy(self, t: float) -> None:
        self.busy_buckets.add(self.bucket_of(t))

    def note_state_change(self, n: Notification) -> None:
        self.state_log.append(n)

    def finalize(self, residual: int) -> StatsCollector:
        """Record the packets left in the network at the horizon; returns self."""
        self.residual = residual
        return self

    # -- queries on the finished run -----------------------------------------

    def generated_total(self) -> int:
        return sum(self.generated.values())

    def delivered_total(self) -> int:
        return sum(self.delivered.values())

    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def delay_cdf(self, cls: TrafficClass) -> DelayCdf:
        return DelayCdf(self.delay_samples[cls])

    def throughput_ratio(
        self, cls: TrafficClass, window: Optional[tuple[float, float]] = None
    ) -> Optional[float]:
        """Delivered/generated for a class over a bucket-aligned window
        (whole run by default); None when nothing was generated."""
        if window is None:
            gen, dlv = self.generated[cls], self.delivered[cls]
        else:
            b0 = max(0, int(window[0] / self.bucket_s))
            b1 = min(self.n_buckets, math.ceil(window[1] / self.bucket_s))
            gen = sum(self.generated_bucket[cls][b0:b1])
            dlv = sum(self.delivered_bucket[cls][b0:b1])
        if gen == 0:
            return None
        return dlv / gen

    def mean_delay_s(self, cls: TrafficClass, foreground: bool = False) -> Optional[float]:
        if foreground:
            n = sum(self.fg_delivered_bucket[cls])
            s = sum(self.fg_delay_sum_bucket[cls])
        else:
            n = self.delivered[cls]
            s = sum(self.delay_sum_bucket[cls])
        return s / n if n else None

    def mean_hops(self, cls: TrafficClass, foreground: bool = False) -> Optional[float]:
        if foreground:
            n = sum(self.fg_delivered_bucket[cls])
            s = sum(self.fg_hop_sum_bucket[cls])
        else:
            n = self.delivered[cls]
            s = sum(self.hop_sum_bucket[cls])
        return s / n if n else None


def _fmt(x) -> str:
    """Full-precision, locale-free number formatting."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def export(report: StatsCollector, out_dir) -> None:
    """Write the report as a directory of CSVs plus run_meta.json.

    Exports are pure functions of the report: re-exporting the same report
    yields byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "drops_per_sat.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,satellite,class,reason,count\n")
        # No-satellite drops sort first, then satellites in (plane, slot) order.
        for (b, sat, cls, reason), count in sorted(
            report.drops_detail.items(),
            key=lambda kv: (kv[0][0], () if kv[0][1] is None else kv[0][1], kv[0][2], kv[0][3]),
        ):
            name = "-" if sat is None else str(sat)
            f.write(f"{b},{name},{cls.name},{reason},{count}\n")

    with open(out / "delay_series.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,class,deliveries,mean_delay_ms\n")
        for b in range(report.n_buckets):
            for cls in ALL_CLASSES:
                n = report.delivered_bucket[cls][b]
                if n == 0:
                    continue
                mean_ms = report.delay_sum_bucket[cls][b] / n * MS_PER_S
                f.write(f"{b},{cls.name},{n},{_fmt(mean_ms)}\n")

    for cls in ALL_CLASSES:
        with open(out / f"delay_cdf_{cls.name}.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("delay_ms,cum_prob\n")
            samples = sorted(report.delay_samples[cls])
            n = len(samples)
            for k, s in enumerate(samples):
                f.write(f"{_fmt(s * MS_PER_S)},{_fmt((k + 1) / n)}\n")

    with open(out / "throughput.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,class,generated,delivered,throughput_pkt_s,ratio\n")
        for b in range(report.n_buckets):
            for cls in ALL_CLASSES:
                gen = report.generated_bucket[cls][b]
                dlv = report.delivered_bucket[cls][b]
                rate = dlv / report.bucket_s
                ratio = _fmt(dlv / gen) if gen else ""
                f.write(f"{b},{cls.name},{gen},{dlv},{_fmt(rate)},{ratio}\n")

    with open(out / "hops.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,class,scope,deliveries,mean_hops\n")
        for b in range(report.n_buckets):
            for cls in ALL_CLASSES:
                for scope, dlv, hops in (
                    ("all", report.delivered_bucket, report.hop_sum_bucket),
                    ("foreground", report.fg_delivered_bucket, report.fg_hop_sum_bucket),
                ):
                    n = dlv[cls][b]
                    if n == 0:
                        continue
                    f.write(f"{b},{cls.name},{scope},{n},{_fmt(hops[cls][b] / n)}\n")

    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write(
            "class,generated,delivered,dropped,throughput_ratio,"
            "mean_delay_ms,p90_delay_ms,mean_hops,fg_mean_delay_ms,fg_mean_hops\n"
        )
        for cls in ALL_CLASSES:
            ratio = report.throughput_ratio(cls)
            mean_d = report.mean_delay_s(cls)
            cdf = report.delay_cdf(cls)
            p90 = cdf.quantile(0.9) * MS_PER_S if len(cdf) else None
            hops = report.mean_hops(cls)
            fg_d = report.mean_delay_s(cls, foreground=True)
            fg_h = report.mean_hops(cls, foreground=True)
            cells = [
                cls.name,
                str(report.generated[cls]),
                str(report.delivered[cls]),
                str(report.dropped[cls]),
                _fmt(ratio) if ratio is not None else "",
                _fmt(mean_d * MS_PER_S) if mean_d is not None else "",
                _fmt(p90) if p90 is not None else "",
                _fmt(hops) if hops is not None else "",
                _fmt(fg_d * MS_PER_S) if fg_d is not None else "",
                _fmt(fg_h) if fg_h is not None else "",
            ]
            f.write(",".join(cells) + "\n")

    with open(out / "state_log.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("time,satellite,new_label,rate\n")
        for n in report.state_log:
            f.write(f"{_fmt(n.time)},{n.satellite},{n.label.value},{_fmt(n.rate)}\n")

    if report.route_dump is not None:
        with open(out / "route_tables.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("slot,src,dst,next_hop,cost_seconds\n")
            for slot, src, dst, nxt, cost in report.route_dump:
                f.write(f"{slot},{src},{dst},{nxt},{_fmt(cost) if cost is not None else ''}\n")

    if report.trace_rows is not None:
        with open(out / "packet_trace.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("time,event,pkt_id,class,satellite,hop\n")
            for t, event, pid, cls, sat, hop in report.trace_rows:
                f.write(f"{_fmt(t)},{event},{pid},{cls},{sat},{hop}\n")

    meta = {
        "horizon_s": report.horizon_s,
        "bucket_s": report.bucket_s,
        "seed": report.seed,
        "strategy": report.strategy,
        "generated": report.generated_total(),
        "delivered": report.delivered_total(),
        "dropped": report.dropped_total(),
        "residual": report.residual,
        "backup_forwards": report.backup_forwards,
        "wait_enqueues": report.wait_enqueues,
        "busy_buckets": sorted(report.busy_buckets),
    }
    with open(out / "run_meta.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
