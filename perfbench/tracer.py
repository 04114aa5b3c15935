"""Per-layer timing wrappers, installed on leoqsim from outside the package.

`Tracer.install` replaces the public functions each layer exposes to the
engine with timing wrappers; `Tracer.restore` puts the originals back.
Per-packet calls are aggregated into (calls, self time); coarse calls (table
builds, snapshots, run, export, set-up) are kept as individual spans with
start, end and parent. A layer's self time is its wall time minus the time
its wrapped children took.

PER_LAYER names every per-layer metric the benchmark reports, with its unit,
which direction is better, and the end-to-end metric and workload it should
move. BENCHMARK.json lists the same names and units.
"""

from __future__ import annotations

import importlib
import json
import time

# name -> (unit, better, should move)
PER_LAYER = {
    "routing.backup_build_calls": (
        "count", "lower", "wall_s on hotspot and large_shell; nothing on baseline"),
    "routing.backup_build_s": (
        "s", "lower", "wall_s on hotspot and large_shell; nothing on baseline"),
    "routing.primary_build_calls": (
        "count", "lower", "wall_s and peak_rss_mb on large_shell; nothing elsewhere"),
    "routing.primary_build_s": (
        "s", "lower", "wall_s and peak_rss_mb on large_shell; nothing elsewhere"),
    "routing.decide_calls": (
        "count", "lower", "wall_s and delivered_ratio_B on hotspot; 0 calls on baseline"),
    "routing.decide_s": (
        "s", "lower", "wall_s and delivered_ratio_B on hotspot; 0 calls on baseline"),
    "routing.decide_forward_ratio": (
        "ratio", "higher", "wall_s and delivered_ratio_B on hotspot; 0 when there are no calls"),
    "engine.wait_enqueues": (
        "count", "lower", "wall_s and delivered_ratio_B on hotspot; 0 on baseline"),
    "engine.waits_per_packet": (
        "ratio", "lower", "wall_s and delivered_ratio_B on hotspot; 0 on baseline"),
    "engine.backup_forwards": (
        "count", "lower", "wall_s and delivered_ratio_B on hotspot; 0 on baseline"),
    "engine.route_wait_drops": (
        "count", "lower", "delivered_ratio_B on hotspot; 0 on baseline"),
    "constellation.access_calls": (
        "count", "lower", "wall_s on hotspot (driven by re-routes) and on large_shell"),
    "constellation.access_s": (
        "s", "lower", "wall_s on hotspot and on large_shell (solve cost scales with N)"),
    "constellation.snapshot_calls": (
        "count", "lower", "wall_s on large_shell"),
    "constellation.snapshot_s": (
        "s", "lower", "wall_s on large_shell"),
    "scheduling.enqueue_calls": (
        "count", "lower", "packets_per_s on baseline"),
    "scheduling.enqueue_s": (
        "s", "lower", "packets_per_s on baseline"),
    "scheduling.dequeue_calls": (
        "count", "lower", "packets_per_s on baseline"),
    "scheduling.dequeue_s": (
        "s", "lower", "packets_per_s on baseline"),
    "scheduling.buffer_drops": (
        "count", "lower", "delivered_ratio_A and delivered_ratio_B on every workload"),
    "congestion.record_arrival_calls": (
        "count", "lower", "packets_per_s on baseline"),
    "congestion.record_arrival_s": (
        "s", "lower", "packets_per_s on baseline"),
    "congestion.evaluate_calls": (
        "count", "lower", "packets_per_s on baseline; sweeps scale with N on large_shell"),
    "congestion.evaluate_s": (
        "s", "lower", "packets_per_s on baseline; sweeps scale with N on large_shell"),
    "congestion.notifications": (
        "count", "lower", "delivered_ratio_B and wall_s on hotspot; 0 on baseline"),
    "traffic.next_calls": (
        "count", "lower", "packets_per_s on baseline"),
    "traffic.next_s": (
        "s", "lower", "packets_per_s on baseline"),
    "stats.record_calls": (
        "count", "lower", "wall_s on every workload"),
    "stats.record_s": (
        "s", "lower", "wall_s on every workload"),
    "stats.export_s": (
        "s", "lower", "wall_s on every workload"),
    "stats.export_bytes": (
        "B", "lower", "wall_s on every workload"),
    "engine.self_s": (
        "s", "lower", "packets_per_s on baseline"),
    "scenario.parse_s": (
        "s", "lower", "setup_s on every workload"),
    "engine.init_s": (
        "s", "lower", "setup_s on every workload"),
    "trace.overhead_s": (
        "s", "lower", "none: traced minus untraced wall_s, it keeps the traced numbers honest"),
}

# Aggregated per-call wrappers: metric prefix -> [(owner path, attribute)].
_COUNTED = {
    "routing.decide": [("engine", "decide_next_index")],
    "constellation.access": [("constellation.AccessResolver", "access_index")],
    "scheduling.enqueue": [("scheduling.PqwrrScheduler", "enqueue")],
    "scheduling.dequeue": [("scheduling.PqwrrScheduler", "dequeue")],
    "congestion.record_arrival": [("congestion.NodeCongestionState", "record_arrival")],
    "congestion.evaluate": [("congestion.NodeCongestionState", "evaluate")],
    "stats.record": [
        ("stats.StatsCollector", "record_generated"),
        ("stats.StatsCollector", "record_delivery"),
        ("stats.StatsCollector", "record_drop"),
    ],
}

# Coarse calls kept as individual spans: span name -> (owner path, attribute).
_SPANS = {
    "constellation.snapshot": ("engine", "build_topology_snapshot"),
    "routing.primary_build": ("engine", "compute_shortest_path_table"),
    "routing.backup_build": ("engine", "compute_backup_table"),
    "engine.run": ("engine.Simulation", "run"),
    "engine.init": ("engine.Simulation", "__init__"),
    "stats.export": ("stats", "export"),
    "scenario.parse": ("scenario", "loads_scenario"),
}


def _resolve(path: str):
    """leoqsim module or class named by 'module' or 'module.Class'."""
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"leoqsim.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Timing wrappers for one traced job. Install, run, restore, read."""

    def __init__(self):
        self._stack = [0.0]  # child-time accumulators; the root frame never pops
        self._span_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, list] = {}  # prefix -> [calls, self_s]
        self.spans: list = []  # dicts: name, start, end, parent, self_s
        self.decide_forwards = 0

    # -- wrappers ------------------------------------------------------------

    def _counted(self, fn, stat: list):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def _span(self, fn, name: str):
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = span_stack[-1] if span_stack else None
            span_stack.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                span_stack.pop()
                stack[-1] += t1 - t0
                spans[sid] = {"name": name, "start": t0, "end": t1, "parent": parent,
                              "self_s": t1 - t0 - child}

        return wrapper

    def _decide(self, fn):
        def decide(*args):
            result = fn(*args)
            if result[0] >= 0:
                self.decide_forwards += 1
            return result

        return decide

    def _stream(self, fn, stat: list):
        counted = self._counted

        def stream(gen_self, horizon):
            step = counted(fn(gen_self, horizon).__next__, stat)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return stream

    # -- install / restore ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for prefix, targets in _COUNTED.items():
            stat = self.counts.setdefault(prefix, [0, 0.0])
            for path, attr in targets:
                owner = _resolve(path)
                fn = vars(owner)[attr]
                if prefix == "routing.decide":
                    fn = self._decide(fn)
                self._patch(owner, attr, self._counted(fn, stat))
        stat = self.counts.setdefault("traffic.next", [0, 0.0])
        gen_cls = _resolve("traffic.ArrivalGenerator")
        self._patch(gen_cls, "stream", self._stream(vars(gen_cls)["stream"], stat))
        for name, (path, attr) in _SPANS.items():
            owner = _resolve(path)
            self._patch(owner, attr, self._span(vars(owner)[attr], name))

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # -- results -------------------------------------------------------------

    def _span_stats(self, name: str) -> tuple[int, float]:
        durations = [s["self_s"] for s in self.spans if s["name"] == name]
        return len(durations), sum(durations)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times measured by the wrappers."""
        out = {}
        for prefix, (calls, self_s) in self.counts.items():
            out[f"{prefix}_calls"] = calls
            out[f"{prefix}_s"] = self_s
        decides = self.counts["routing.decide"][0]
        out["routing.decide_forward_ratio"] = self.decide_forwards / decides if decides else 0.0
        for name in ("routing.backup_build", "routing.primary_build", "constellation.snapshot"):
            out[f"{name}_calls"], out[f"{name}_s"] = self._span_stats(name)
        out["stats.export_s"] = self._span_stats("stats.export")[1]
        out["engine.self_s"] = self._span_stats("engine.run")[1]
        for name in ("scenario.parse", "engine.init"):  # per call: set-up repeats in a job
            calls, total = self._span_stats(name)
            out[f"{name}_s"] = total / calls if calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """Write the coarse spans and the aggregated counters as JSON."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counted": self.counts}, f, indent=1)
            f.write("\n")
