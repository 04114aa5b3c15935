"""Metric collection and CSV export: per-satellite loss series, per-class
delay series and CDFs, throughput ratios, and hop counts, all on a fixed
time-bucket grid. Foreground (tagged-flow) deliveries are tracked separately
so endpoint-to-endpoint behavior can be read off directly.

One `StatsCollector` holds a run's statistics: the event loop records packets,
drops and busy/idle notifications into it and sets the residual at the
horizon, and the same object is the report that the queries, `export` and
`engine.conservation_audit` read. When some satellite was Busy is read off
the notification log alone. A satellite is its index, -1 meaning none, and
`export` names it from the engine's `names` table. The packet trace and route
dump arrive as spools the engine wrote; `export` copies them, reading no row."""

from __future__ import annotations

import json
import math
import shutil
from array import array
from pathlib import Path
from typing import IO, Optional

import numpy as np

from .congestion import CongestionLabel, Notification
from .constellation import periods_elapsed
from .scheduling import ALL_CLASSES, DropReason, TrafficClass

MS_PER_S = 1000.0
CDF_CHUNK_ROWS = 1024  # rows of a delay CDF file formatted per write
# Each drop reason's text; a dict lookup is cheaper than the enum's `value`.
_REASON_TEXT = {reason: reason.value for reason in DropReason}


class DelayCdf:
    """Empirical distribution over delay samples (seconds), held as a sorted
    float64 copy. For finite floats `np.sort` gives the same order as
    `sorted()`; queries return plain Python floats, since numpy 2 prints a
    bare `np.float64` as `np.float64(...)`."""

    def __init__(self, samples):
        self.samples = np.array(samples, dtype=np.float64)
        self.samples.sort()

    def __len__(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> float:
        """Smallest sample s with CDF(s) >= q; requires 0 < q <= 1."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if not len(self.samples):
            raise ValueError("no samples")
        k = math.ceil(q * len(self.samples)) - 1
        return float(self.samples[max(k, 0)])


class StatsCollector:
    """One run's statistics; once the run sets `residual` it is the run's report."""

    def __init__(self, horizon_s: float, bucket_s: float, seed: int, strategy: str,
                 names: list[str]):
        self.horizon_s = horizon_s
        self.bucket_s = bucket_s
        self.seed = seed
        self.strategy = strategy
        self.names = names  # names[i] names satellite i, names[-1] no satellite
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
        self.drops_detail: dict[tuple[int, int, TrafficClass, str], int] = {}
        self.state_log: list[tuple[int, Notification]] = []  # (satellite, notification)
        self.backup_forwards = 0
        self.wait_enqueues = 0
        self.residual = 0  # packets still in the network at the horizon
        self.route_dump: Optional[IO[str]] = None  # route_tables.csv, spooled by the engine
        self.trace: Optional[IO[str]] = None  # packet_trace.csv, spooled by the engine

    def close(self) -> None:
        """Close (and so delete) the trace and route-dump spools; export first."""
        for spool in (self.trace, self.route_dump):
            if spool is not None:
                spool.close()

    # -- recording, called by the event loop ---------------------------------

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

    def record_drop(self, t: float, satellite: int, tos: TrafficClass, reason: DropReason) -> None:
        """Count one drop at time t under its bucket, satellite index, class
        and reason; a satellite of -1 marks a source-side (no satellite) drop."""
        b = int(t / self.bucket_s)
        if b >= self.n_buckets:
            b = self.n_buckets - 1
        self.dropped[tos] += 1
        text = _REASON_TEXT[reason]
        key = (tos, text)
        self.dropped_by_reason[key] = self.dropped_by_reason.get(key, 0) + 1
        dkey = (b, satellite, tos, text)
        self.drops_detail[dkey] = self.drops_detail.get(dkey, 0) + 1

    # -- queries on the finished run -----------------------------------------

    def generated_total(self) -> int:
        return sum(self.generated.values())

    def delivered_total(self) -> int:
        return sum(self.delivered.values())

    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def busy_buckets(self) -> list[int]:
        """The buckets a busy episode touches, read off `state_log` by the
        rule `export` states."""
        s = self.bucket_s
        busy: set[int] = set()
        marked: set[int] = set()
        for sat, notif in self.state_log:
            if notif.label is CongestionLabel.BUSY:
                if not busy:
                    first = periods_elapsed(notif.time, s)
                busy.add(sat)
            else:
                busy.remove(sat)
                if not busy:
                    marked.update(range(first, periods_elapsed(notif.time, s) + 1))
        if busy:
            marked.update(range(first, periods_elapsed(self.horizon_s, s) + 1))
        return sorted({min(b, self.n_buckets - 1) for b in marked})

    def delay_cdf(self, cls: TrafficClass) -> DelayCdf:
        return DelayCdf(self.delay_samples[cls])

    def throughput_ratio(self, cls: TrafficClass) -> Optional[float]:
        """Delivered/generated for a class over the run; None when nothing
        was generated."""
        gen = self.generated[cls]
        return self.delivered[cls] / gen if gen else None

    def mean_delay_s(self, cls: TrafficClass, foreground: bool = False) -> Optional[float]:
        n = sum(self.fg_delivered_bucket[cls]) if foreground else self.delivered[cls]
        s = 0.0  # left to right, not `sum`: from Python 3.12 it compensates floats
        for d in (self.fg_delay_sum_bucket if foreground else self.delay_sum_bucket)[cls]:
            s += d
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
    """Full-precision, locale-free number formatting; None is an empty cell."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def export(report: StatsCollector, out_dir) -> None:
    """Write the report into out_dir: drops_per_sat.csv, delay_series.csv,
    delay_cdf_<class>.csv for A, B2, B1 and B0, throughput.csv, hops.csv,
    summary.csv and state_log.csv, each under a header row; route_tables.csv
    and packet_trace.csv, copied whole from the run's spools when it kept
    them, an earlier export's copy deleted otherwise; and run_meta.json,
    holding horizon_s, bucket_s, seed, strategy, generated, delivered,
    dropped, residual, backup_forwards, wait_enqueues and busy_buckets.

    Bucket b's throughput_pkt_s is its deliveries over the time it covers:
    bucket_s, or horizon_s - b * bucket_s when (b + 1) * bucket_s > horizon_s;
    empty when that is 0 (float rounding adds a 31st bucket to 21 s of 0.7 s).

    busy_buckets lists every bucket from periods_elapsed(start, bucket_s) to
    periods_elapsed(end, bucket_s), clamped to the last, of each busy
    episode: from the Busy notification that makes the busy set non-empty to
    the Idle one that empties it, or to the horizon. Re-exporting the same
    report, spooled files included, yields byte-identical files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, spool in (("route_tables.csv", report.route_dump), ("packet_trace.csv", report.trace)):
        (out / name).unlink(missing_ok=True)  # so no stale copy stays when the run kept none
        if spool is not None:
            spool.seek(0)
            with open(out / name, "w", encoding="utf-8", newline="\n") as f:
                shutil.copyfileobj(spool, f)

    with open(out / "drops_per_sat.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,satellite,class,reason,count\n")
        # No-satellite drops (-1) sort first, then satellites in (plane, slot) order.
        for (b, sat, cls, reason), count in sorted(report.drops_detail.items()):
            f.write(f"{b},{report.names[sat]},{cls.name},{reason},{count}\n")

    with open(out / "delay_series.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,class,deliveries,mean_delay_ms\n")
        for b in range(report.n_buckets):
            for cls in ALL_CLASSES:
                n = report.delivered_bucket[cls][b]
                if n == 0:
                    continue
                mean_ms = report.delay_sum_bucket[cls][b] / n * MS_PER_S
                f.write(f"{b},{cls.name},{n},{_fmt(mean_ms)}\n")

    p90_ms = {}  # from the sorted samples the CDF file is written from
    for cls in ALL_CLASSES:
        cdf = report.delay_cdf(cls)
        n = len(cdf)
        p90_ms[cls] = cdf.quantile(0.9) * MS_PER_S if n else None
        with open(out / f"delay_cdf_{cls.name}.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("delay_ms,cum_prob\n")
            # Row k holds sample k in ms and (k + 1) / n: numpy's float64
            # product and quotient round as Python's do, and `tolist` gives
            # Python floats whose repr is `_fmt`'s.
            for lo in range(0, n, CDF_CHUNK_ROWS):
                hi = min(lo + CDF_CHUNK_ROWS, n)
                delays = (cdf.samples[lo:hi] * MS_PER_S).tolist()
                probs = (np.arange(lo + 1, hi + 1) / n).tolist()
                f.write("".join([f"{d!r},{p!r}\n" for d, p in zip(delays, probs)]))

    with open(out / "throughput.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("bucket,class,generated,delivered,throughput_pkt_s,ratio\n")
        s, horizon = report.bucket_s, report.horizon_s
        for b in range(report.n_buckets):
            span = s if (b + 1) * s <= horizon else horizon - b * s  # what the horizon leaves
            for cls in ALL_CLASSES:
                gen = report.generated_bucket[cls][b]
                dlv = report.delivered_bucket[cls][b]
                rate = _fmt(dlv / span) if span > 0 else ""
                ratio = _fmt(dlv / gen) if gen else ""
                f.write(f"{b},{cls.name},{gen},{dlv},{rate},{ratio}\n")

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
            mean_d = report.mean_delay_s(cls)
            fg_d = report.mean_delay_s(cls, foreground=True)
            cells = [
                cls.name, report.generated[cls], report.delivered[cls], report.dropped[cls],
                report.throughput_ratio(cls), None if mean_d is None else mean_d * MS_PER_S,
                p90_ms[cls], report.mean_hops(cls),
                None if fg_d is None else fg_d * MS_PER_S, report.mean_hops(cls, foreground=True),
            ]
            f.write(",".join(map(_fmt, cells)) + "\n")

    with open(out / "state_log.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("time,satellite,new_label,rate\n")
        for sat, n in report.state_log:
            f.write(f"{_fmt(n.time)},{report.names[sat]},{n.label.value},{_fmt(n.rate)}\n")

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
        "busy_buckets": report.busy_buckets(),
    }
    with open(out / "run_meta.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
