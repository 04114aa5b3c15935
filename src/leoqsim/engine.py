"""Discrete-event core: virtual clock, event queue, per-satellite receive /
rate-account / schedule / forward / transmit pipeline, slot timers, and the
route-update reactions to busy/idle notifications.

Packet lifecycle: user arrival -> uplink propagation -> source satellite
enqueue (counted toward the arrival-rate estimate) -> PQWRR service ->
forwarding decision -> per-link transmission and propagation -> next
satellite (hop += 1) -> ... -> downlink when the current satellite is the
destination's access satellite. Every event is ordered by (time, sequence),
so a (scenario, seed) pair fully determines every output.

The engine owns the event loop and the per-satellite state only. Orbit
geometry and link delays come from `constellation.OrbitGeometry`, the link
graph from `constellation.build_topology_snapshot`, the forwarding rule from
`routing.decide_next_index`, and satellite names from `SatelliteId`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from .congestion import CongestionLabel, NodeCongestionState
from .constellation import AccessResolver, OrbitGeometry, build_topology_snapshot
from .routing import compute_backup_table, compute_shortest_path_table, decide_next_index
from .scenario import ScenarioConfig
from .scheduling import DropReason, DropRecord, PqwrrScheduler, TrafficClass
from .stats import StatsCollector
from .traffic import ArrivalGenerator, Packet

# Event kinds, dispatched positionally: (time, seq, kind, a, b). Events are
# ordered by (time, seq) alone; the kinds are numbered by how often the loop
# meets them.
_EV_SERVICE = 0  # service completion; a = sat index, b = packet
_EV_LINK = 1  # packet reaches the next satellite; a = packet, b = sat index
_EV_UPLINK = 2  # packet reaches its source access satellite; a = packet, b = sat index
_EV_SOURCE = 3  # a packet is created at its source user; b unused
_EV_DELIVERY = 4  # downlink completes at the destination user; b unused
_EV_SLOT = 5  # routing slot boundary; a = slot index
_EV_SWEEP = 6  # periodic arrival-rate re-evaluation of every satellite
_EV_TICK = 7  # stats bucket boundary
_IN_FLIGHT = (_EV_LINK, _EV_UPLINK, _EV_DELIVERY)  # a packet on a link

# Reading a member off an Enum class costs several times a global lookup.
_CLASS_A = TrafficClass.A


class _SatNode:
    __slots__ = ("scheduler", "cong", "wait_queue", "in_service", "chan_free")

    def __init__(self, scheduler: PqwrrScheduler, cong: NodeCongestionState):
        self.scheduler = scheduler
        self.cong = cong
        self.wait_queue: deque = deque()
        self.in_service: Optional[Packet] = None
        self.chan_free: dict[int, float] = {}


class Simulation:
    """One run of one scenario. Build, call `run()`, read the report."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        params = cfg.constellation
        self.params = params
        self.n = params.num_sats
        self.sids = [params.sid_of(i) for i in range(self.n)]
        grid = cfg.load_grid()
        self.generator = ArrivalGenerator(
            flows=list(cfg.traffic.flows),
            grid=grid,
            background_rate=cfg.traffic.background_rate,
            class_mix=cfg.traffic.class_mix,
            seed=cfg.run.seed,
        )
        ground = self.generator.terminals
        self.resolver = AccessResolver(params, ground, quantum_s=cfg.run.access_refresh_s)
        self.geometry = OrbitGeometry(params, ground)
        self.nodes = [
            _SatNode(PqwrrScheduler(cfg.scheduler, self.sids[i]), NodeCongestionState(self.sids[i]))
            for i in range(self.n)
        ]
        self.stats = StatsCollector(
            horizon_s=cfg.run.duration_s,
            bucket_s=cfg.run.stats_interval_s,
            seed=cfg.run.seed,
            strategy=cfg.routing.strategy,
        )
        self.composite = cfg.routing.strategy == "composite"
        self.busy_flags = [False] * self.n
        self.busy_count = 0
        self.snapshot = None
        self.primary = None
        self.backup = None
        self._heap: list = []
        self._next_seq = count(1).__next__  # event sequence numbers 1, 2, ...
        self._service_period = 1.0 / cfg.scheduler.service_rate
        self._chan_period = 1.0 / cfg.scheduler.channel_rate
        self._count_uplink = cfg.traffic.count_uplink_in_rate
        self.trace: Optional[list] = [] if cfg.run.trace else None
        self.route_dump: Optional[list] = [] if cfg.routing.dump_routes else None

    # -- event plumbing ------------------------------------------------------

    def _trace(self, t: float, event: str, pkt: Packet, sat: int) -> None:
        name = str(self.sids[sat]) if sat >= 0 else "-"
        self.trace.append((t, event, pkt.id, pkt.tos.name, name, pkt.hop))

    # -- routing state -------------------------------------------------------

    def _rebuild_for_slot(self, t: float, slot: int) -> None:
        self.snapshot = build_topology_snapshot(self.params, t, slot)
        self.primary = compute_shortest_path_table(self.snapshot)
        self._build_backup()
        if self.route_dump is not None:
            for src, dst, nxt, cost in self.primary.entries():
                self.route_dump.append((slot, str(src), str(dst), str(nxt) if nxt else "", cost))

    def _build_backup(self) -> None:
        """The backup table of the composite strategy. With no satellite busy
        it would equal the primary table, so the primary is used."""
        if self.composite:
            if self.busy_count:
                self.backup = compute_backup_table(self.snapshot, self.busy_flags)
            else:
                self.backup = self.primary

    def _rebuild_backup(self, t: float) -> None:
        self._build_backup()
        self._drain_wait_queues(t)

    def _apply_notification(self, notif) -> None:
        idx = self.params.index_of(notif.satellite)
        now_busy = notif.label is CongestionLabel.BUSY
        if self.busy_flags[idx] != now_busy:
            self.busy_flags[idx] = now_busy
            self.busy_count += 1 if now_busy else -1
        self.stats.note_state_change(notif)
        if now_busy:
            self.stats.note_busy(notif.time)

    def _drain_wait_queues(self, t: float) -> None:
        """Re-route every parked packet, in FIFO order per satellite.

        Within one drain the tables, busy flags and access satellites are
        fixed, so packets alike in what the forwarding rule reads (destination
        user, whether the class is A, whether already detoured) get the same
        answer, which is asked once per group. Packets that still have to wait
        are parked again in their order; the others go through `_route` in
        queue order. The queue was just emptied, so re-parking cannot overflow.
        """
        for i, node in enumerate(self.nodes):
            queue = node.wait_queue
            groups = [(pkt.dst_user, pkt.tos is _CLASS_A, pkt.detoured) for pkt in queue]
            leaves = {}
            for pkt, group in zip(queue, groups):
                if group not in leaves:
                    leaves[group] = self._next_hop(t, pkt, i)[0] >= 0
            if True not in leaves.values():  # nothing leaves: the queue stays as it is
                self.stats.wait_enqueues += len(queue)
                if self.trace is not None:
                    for pkt in queue:
                        self._trace(t, "wait", pkt, i)
                continue
            pending = list(queue)
            queue.clear()
            for pkt, group in zip(pending, groups):
                if leaves[group]:
                    self._route(t, pkt, i)
                else:
                    self._wait(t, pkt, i)

    # -- packet pipeline -----------------------------------------------------

    def _next_hop(self, t: float, pkt: Packet, sat: int) -> tuple[int, bool]:
        """Where a packet at satellite `sat` goes next, and whether the hop comes
        from the backup table: `sat` itself means the downlink, -1 to wait."""
        dst = self.resolver.access_index(pkt.dst_user, t)
        if dst < 0 or dst == sat:
            return dst, False
        return decide_next_index(
            pkt.tos, sat, dst, self.primary, self.backup, self.busy_flags, pkt.detoured
        )

    def _route(self, t: float, pkt: Packet, sat: int) -> None:
        """Forwarding decision for a packet that finished service (or left the
        routing wait queue) at satellite `sat`, and its transmission."""
        nxt, via_backup = self._next_hop(t, pkt, sat)
        if nxt < 0:
            self._wait(t, pkt, sat)
        elif nxt == sat:
            delay = self.geometry.slant_delay(pkt.dst_user, sat, t)
            heappush(self._heap, (t + delay, self._next_seq(), _EV_DELIVERY, pkt, None))
            if self.trace is not None:
                self._trace(t, "downlink", pkt, sat)
        else:
            if via_backup:
                self.stats.backup_forwards += 1
                pkt.detoured = True
            chan_free = self.nodes[sat].chan_free
            free = chan_free.get(nxt, 0.0)
            depart = t if t >= free else free
            chan_free[nxt] = depart + self._chan_period
            prop = self.geometry.link_delay(sat, nxt, depart)
            heappush(self._heap, (depart + prop, self._next_seq(), _EV_LINK, pkt, nxt))
            if self.trace is not None:
                self._trace(depart, "forward", pkt, sat)

    def _wait(self, t: float, pkt: Packet, sat: int) -> None:
        node = self.nodes[sat]
        if len(node.wait_queue) >= self.cfg.routing.wait_queue_capacity:
            rec = DropRecord(t, self.sids[sat], pkt.tos, DropReason.ROUTE_WAIT_OVERFLOW)
            self.stats.record_drop(rec)
            if self.trace is not None:
                self._trace(t, "drop", pkt, sat)
        else:
            node.wait_queue.append(pkt)
            self.stats.wait_enqueues += 1
            if self.trace is not None:
                self._trace(t, "wait", pkt, sat)

    # -- main loop -----------------------------------------------------------

    def run(self) -> StatsCollector:
        cfg = self.cfg
        end = cfg.run.duration_s
        heap = self._heap
        seq = self._next_seq
        self._rebuild_for_slot(0.0, 0)

        slot = cfg.routing.slot_length_s
        for k in range(1, int(end / slot) + 1):
            heappush(heap, (k * slot, seq(), _EV_SLOT, k, None))
        tick = cfg.run.stats_interval_s
        for k in range(1, int(end / tick) + 1):
            heappush(heap, (k * tick, seq(), _EV_TICK, k, None))
        sweep = cfg.run.state_check_interval_s
        for k in range(1, int(end / sweep) + 1):
            heappush(heap, (k * sweep, seq(), _EV_SWEEP, k, None))

        stream = self.generator.stream(end)
        first = next(stream, None)
        if first is not None:
            heappush(heap, (first[0], seq(), _EV_SOURCE, first[1], None))

        stats = self.stats
        nodes = self.nodes
        trace = self.trace
        route = self._route
        access_index = self.resolver.access_index
        slant_delay = self.geometry.slant_delay
        ccfg = cfg.congestion
        service_period = self._service_period
        count_uplink = self._count_uplink
        while heap and heap[0][0] <= end:
            t, _, kind, a, b = heappop(heap)

            if kind == _EV_SERVICE:
                node = nodes[a]
                scheduler = node.scheduler
                if scheduler.size:
                    pkt = scheduler.dequeue()
                    node.in_service = pkt
                    heappush(heap, (t + service_period, seq(), _EV_SERVICE, a, pkt))
                else:
                    node.in_service = None
                if trace is not None:
                    self._trace(t, "service", b, a)
                route(t, b, a)
            elif kind <= _EV_UPLINK:  # _EV_LINK or _EV_UPLINK: packet a reaches satellite b
                node = nodes[b]
                if kind == _EV_LINK:
                    a.hop += 1
                    if trace is not None:
                        self._trace(t, "link_arrival", a, b)
                if kind == _EV_LINK or count_uplink:
                    notif = node.cong.record_arrival(t, ccfg)
                    if notif is not None:
                        self._apply_notification(notif)
                        self._rebuild_backup(t)
                scheduler = node.scheduler
                drop = scheduler.enqueue(a, t)
                if drop is not None:
                    stats.record_drop(drop)
                    if trace is not None:
                        self._trace(t, "drop", a, b)
                elif node.in_service is None:
                    pkt = scheduler.dequeue()
                    node.in_service = pkt
                    heappush(heap, (t + service_period, seq(), _EV_SERVICE, b, pkt))
            elif kind == _EV_SOURCE:
                stats.record_generated(a)
                src = access_index(a.src_user, t)
                if src < 0:
                    rec = DropRecord(t, None, a.tos, DropReason.ACCESS_BLOCKED)
                    stats.record_drop(rec)
                else:
                    delay = slant_delay(a.src_user, src, t)
                    heappush(heap, (t + delay, seq(), _EV_UPLINK, a, src))
                    if trace is not None:
                        self._trace(t, "generated", a, src)
                nxt = next(stream, None)
                if nxt is not None:
                    heappush(heap, (nxt[0], seq(), _EV_SOURCE, nxt[1], None))
            elif kind == _EV_DELIVERY:
                stats.record_delivery(a, t)
                if trace is not None:
                    self._trace(t, "deliver", a, -1)
            elif kind == _EV_SWEEP:
                notifs = []
                for node in nodes:
                    n = node.cong.evaluate(t, ccfg)
                    if n is not None:
                        notifs.append(n)
                for n in notifs:
                    self._apply_notification(n)
                if notifs:
                    self._rebuild_backup(t)
                if self.busy_count:
                    stats.note_busy(t)
            elif kind == _EV_SLOT:
                self._rebuild_for_slot(t, a)
                self._drain_wait_queues(t)
            elif kind == _EV_TICK:
                if self.busy_count:
                    stats.note_busy(t)

        residual = sum(1 for ev in heap if ev[2] in _IN_FLIGHT)
        for node in nodes:
            residual += node.scheduler.size + len(node.wait_queue)
            if node.in_service is not None:
                residual += 1
        stats.route_dump = self.route_dump
        stats.trace_rows = self.trace
        return stats.finalize(residual)


def run(cfg: ScenarioConfig) -> StatsCollector:
    return Simulation(cfg).run()


def conservation_audit(report: StatsCollector) -> bool:
    """Exact accounting: generated = delivered + dropped + residual."""
    return report.generated_total() == (
        report.delivered_total() + report.dropped_total() + report.residual
    )
