"""Discrete-event core: virtual clock, event queue, per-satellite receive /
rate-account / schedule / forward / transmit pipeline, slot timers, and the
route-update reactions to busy/idle notifications.

Packet lifecycle: user arrival -> uplink propagation -> source satellite
enqueue (counted toward the arrival-rate estimate) -> PQWRR service ->
forwarding decision -> per-link transmission and propagation -> next
satellite (hop += 1) -> ... -> downlink when the current satellite is the
destination's access satellite. Every event is ordered by (time, sequence),
so a (scenario, seed) pair fully determines every output.

A packet that reaches an idle satellite goes into service at once
(`PqwrrScheduler.start`): an idle satellite's queues are all empty, so PQWRR
has nothing to choose among and only its round-robin cursor moves. With a
`buffer_capacity` of 0 the packet is tail-dropped instead, idle or not.

Every forwarding decision is made in one block of `run`'s loop, over local
names rather than attributes: the access row, the two tables' rows, the busy
flags, the forwarding rule and the delay geometry. `run` rebinds the access
row at each refresh, and the table rows after every slot rebuild and
busy/idle notification, before anything routes with them. Two kinds of
packet reach that block: one that finishes service, and one released from a
routing wait queue. Per-satellite state is five lists indexed by satellite:
`schedulers`, `congs` (arrival-rate estimators), `wait_queues`, `in_service`
(the packet in service, or None) and `chan_free`, whose entry i holds, per
neighbour j, the time the link i -> j is next free (N^2 entries in all).

A change of the busy set (a notification, at an arrival or a sweep) or of
the routing slot releases every parked packet: the wait queues are emptied
onto a run-local FIFO of (satellite, packet) pairs, in FIFO order per
satellite and satellites in index order. The loop takes that FIFO before any
other lane, at the time of the event that filled it, so released packets are
routed right after that event and before any other; one that must wait again
is re-parked in its order and cannot overflow its queue. The event finishes
first: an arrival whose notification releases packets is admitted (taken
into service, enqueued or dropped) before they are routed.

The engine owns the event loop and the per-satellite state only. Orbit
geometry and link delays come from `constellation.OrbitGeometry`, the link
graph from `constellation.build_topology_snapshot` and the forwarding rule
from `routing.decide_next_index`. A satellite is its index, -1 meaning none,
in every layer and in the report's drop and busy/idle records. The engine's
`names` table alone names it: in the trace and route-dump lines written
once, as they happen, to the report's spool files, and, through the report,
in `stats.export`. `stats` gets those records and nothing else: no event
marks a stats bucket.

Pending events sit in three lanes. Every service completion falls one fixed
service period after the event that starts it, and event times never
decrease, so completions are created in (time, seq) order: they queue in a
FIFO. The next source arrival waits alone in its own lane, under the key it
would have in the heap: its seq is drawn when the previous source is
handled, and an exhausted stream leaves a key that sorts after the horizon.
Everything else goes through a binary heap, which also holds a horizon
sentinel `(end, 1 << 62, _EV_END)`. The loop takes whichever of the three
heads sorts first, so the events run in the same (time, seq) order as from
one heap, and it stops when it pops the sentinel, so an event at exactly the
horizon still runs.

The access satellite of every terminal is a row, refreshed by a periodic
event at each `access_refresh_s` quantum (`AccessResolver.row`). Refreshes
hold the first sequence numbers, so at a quantum boundary the new row is in
place before any other event at that time reads it.

Of each route table the engine keeps only the next-hop rows the forwarding
rule reads. A backup table depends only on the slot's snapshot and the busy
flags, so each slot builds it once per distinct busy set and keeps the rows,
keyed by the flags, until the slot ends: at most (distinct busy sets in the
slot) x N^2 x 2 bytes. Each slot starts the cache with the all-idle key mapped
to the primary rows, which that key's backup table equals. The forwarding
rule trusts the engine to hand it the rows of the flags in force.
"""

from __future__ import annotations

import tempfile
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Optional

from .congestion import CongestionLabel, NodeCongestionState
from .constellation import (
    PICOSECONDS_PER_SECOND,
    AccessResolver,
    OrbitGeometry,
    build_topology_snapshot,
    periods_elapsed,
)
from .routing import compute_backup_table, compute_shortest_path_table, decide_next_index
from .scenario import ScenarioConfig
from .scheduling import DropReason, PqwrrScheduler
from .stats import StatsCollector
from .traffic import ArrivalGenerator, Packet

# Event kinds, dispatched positionally: (time, seq, kind, a, b). Events are
# ordered by (time, seq) alone; the kinds are numbered by how often the loop
# meets them.
_EV_SERVICE = 0  # service completion, in the FIFO lane; a = sat index, b = packet
_EV_LINK = 1  # packet reaches the next satellite; a = packet, b = sat index
_EV_UPLINK = 2  # packet reaches its source access satellite; a = packet, b = sat index
_EV_SOURCE = 3  # a packet is created at its source user, in the source lane; b unused
_EV_DELIVERY = 4  # downlink completes at the destination user; b unused
_EV_SLOT = 5  # routing slot boundary; a = slot index
_EV_SWEEP = 6  # periodic arrival-rate re-evaluation of every satellite
_EV_ACCESS = 7  # access row refresh; a = quantum index
_EV_END = 8  # horizon sentinel
_IN_FLIGHT = (_EV_LINK, _EV_UPLINK, _EV_DELIVERY)  # a packet on a link
_WAIT = (-1, False)  # the decision for a destination no satellite serves


def _spool(header: str):
    """An anonymous text file in the system temp directory, `header` its first line."""
    f = tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")
    f.write(header + "\n")
    return f


class Simulation:
    """One run of one scenario. Build, call `run()`, read the report."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        params = cfg.constellation
        self.params = params
        self.n = params.num_sats
        # names[i] names satellite i in every export; names[-1] names no satellite.
        self.names = [f"S-{p}-{s}" for p in range(params.planes)
                      for s in range(params.sats_per_plane)] + ["-"]
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
        self.schedulers = [PqwrrScheduler(cfg.scheduler) for _ in range(self.n)]
        self.congs = [NodeCongestionState() for _ in range(self.n)]
        self.wait_queues = [deque() for _ in range(self.n)]
        self.in_service: list[Optional[Packet]] = [None] * self.n
        self.chan_free = [[0.0] * self.n for _ in range(self.n)]
        self.stats = stats = StatsCollector(
            horizon_s=cfg.run.duration_s,
            bucket_s=cfg.run.stats_interval_s,
            seed=cfg.run.seed,
            strategy=cfg.routing.strategy,
            names=self.names,
        )
        self.composite = cfg.routing.strategy == "composite"
        self.busy_flags = [False] * self.n
        self.snapshot = None  # the slot's neighbour table
        self._backups: dict[tuple[bool, ...], list] = {}  # busy flags -> rows, this slot
        self._heap: list = []
        self._svc: deque = deque()  # service completions, in (time, seq) order
        stats.trace = _spool("time,event,pkt_id,class,satellite,hop") if cfg.run.trace else None
        stats.route_dump = (_spool("slot,src,dst,next_hop,cost_seconds")
                            if cfg.routing.dump_routes else None)

    # -- event plumbing ------------------------------------------------------

    def _trace(self, t: float, event: str, pkt: Packet, sat: int) -> None:
        self.stats.trace.write(f"{t!r},{event},{pkt.id},{pkt.tos.name},{self.names[sat]},{pkt.hop}\n")

    # -- routing state -------------------------------------------------------

    def _rebuild_for_slot(self, t: float, slot: int) -> tuple[list, Optional[list]]:
        """Build the slot's snapshot and primary table; return the primary and
        backup rows."""
        self.snapshot = build_topology_snapshot(self.params, t)
        primary, cost_ps = compute_shortest_path_table(self.snapshot)
        self._backups = {(False,) * self.n: primary}
        if self.stats.route_dump is not None:  # a line per src != dst; unreachable: empty cells
            names = self.names
            costs = cost_ps.tolist()  # Python ints: exact division, float repr
            for i, row in enumerate(primary):
                for j, (nxt, c) in enumerate(zip(row, costs[i])):
                    if i != j:
                        hop = names[nxt] if nxt >= 0 else ""
                        cost = "" if c < 0 else repr(c / PICOSECONDS_PER_SECOND)
                        self.stats.route_dump.write(f"{slot},{names[i]},{names[j]},{hop},{cost}\n")
        return primary, self._backup_rows()

    def _backup_rows(self) -> Optional[list]:
        """The backup rows of the busy flags in force under the composite
        strategy (None under pqwrr_only): built on the first meeting of the
        busy set in this slot, then reused."""
        if not self.composite:
            return None
        key = tuple(self.busy_flags)
        rows = self._backups.get(key)
        if rows is None:
            rows = compute_backup_table(self.snapshot, self.busy_flags)[0]
            self._backups[key] = rows
        return rows

    def _notify(self, notifs, released: deque) -> Optional[list]:
        """Apply (satellite index, notification) pairs, release every parked
        packet and return the backup rows of the new busy set."""
        for idx, notif in notifs:
            self.busy_flags[idx] = notif.label is CongestionLabel.BUSY
            self.stats.state_log.append((idx, notif))
        self._release(released)
        return self._backup_rows()

    def _release(self, released: deque) -> None:
        """Empty every wait queue onto `released` as (satellite, packet)
        pairs, in FIFO order per satellite and satellites in index order."""
        for i, pending in enumerate(self.wait_queues):
            if pending:
                for pkt in pending:
                    released.append((i, pkt))
                pending.clear()

    # -- main loop -----------------------------------------------------------

    def run(self) -> StatsCollector:
        cfg = self.cfg
        end = cfg.run.duration_s
        heap = self._heap
        svc = self._svc
        primary, backup = self._rebuild_for_slot(0.0, 0)
        access_row = self.resolver.row
        access = access_row(0)

        # Periodic events are pushed one ahead: the first of each kind here,
        # event k + 1 when event k fires, so the heap never holds more than
        # one of a kind. Their sequence numbers are the ones an all-up-front
        # schedule would give (access refreshes 1..n, then slots and sweeps)
        # and packet events are numbered after them: every event keeps its
        # (time, seq) key, so the pop order, and with it every export, does
        # not depend on when an event was pushed.
        periodic = {}  # kind -> (period, number of events)
        first_seq = 1
        for kind, period in ((_EV_ACCESS, cfg.run.access_refresh_s),
                             (_EV_SLOT, cfg.routing.slot_length_s),
                             (_EV_SWEEP, cfg.run.state_check_interval_s)):
            # Event k fires at k * period while that is <= end.
            last = periods_elapsed(end, period)
            periodic[kind] = (period, last)
            if last:
                heappush(heap, (period, first_seq, kind, 1, None))
            first_seq += last
        heappush(heap, (end, 1 << 62, _EV_END, None, None))
        seq = count(first_seq).__next__

        stream = self.generator.stream(end)
        exhausted = (end, 1 << 63, _EV_SOURCE, None, None)  # sorts after the sentinel
        first = next(stream, None)
        source = exhausted if first is None else (first[0], seq(), _EV_SOURCE, first[1], None)

        stats = self.stats
        schedulers = self.schedulers
        congs = self.congs
        wait_queues = self.wait_queues
        in_service = self.in_service
        chan_free = self.chan_free
        trace = stats.trace
        decide = decide_next_index  # read here, so a replaced module global takes effect
        busy_flags = self.busy_flags
        backup_forwards = 0
        wait_enqueues = 0
        wait_capacity = cfg.routing.wait_queue_capacity
        slant_delay = self.geometry.slant_delay
        link_delay = self.geometry.link_delay
        chan_period = 1.0 / cfg.scheduler.channel_rate
        ccfg = cfg.congestion
        service_period = 1.0 / cfg.scheduler.service_rate
        count_uplink = cfg.traffic.count_uplink_in_rate
        idle_start = cfg.scheduler.buffer_capacity > 0  # with no buffer, every arrival drops
        svc_pop = svc.popleft
        svc_push = svc.append
        released = deque()  # (satellite, packet) pairs a drain took off the wait queues
        released_pop = released.popleft
        while True:
            head = heap[0]
            if source < head:
                head = source
            if svc and svc[0] < head or released:  # packet b leaves satellite a
                if released:  # at the time t of the event that released it
                    a, b = released_pop()
                else:  # _EV_SERVICE
                    t, _, _, a, b = svc_pop()
                    scheduler = schedulers[a]
                    if scheduler.size:
                        pkt = scheduler.dequeue()
                        in_service[a] = pkt
                        svc_push((t + service_period, seq(), _EV_SERVICE, a, pkt))
                    else:
                        in_service[a] = None
                    if trace is not None:
                        self._trace(t, "service", b, a)
                # The forwarding decision and its transmission: the downlink,
                # a wait at a, or the link to the next satellite.
                dst = access[b.dst_user]
                if dst == a:
                    heappush(heap, (t + slant_delay(b.dst_user, a, t), seq(), _EV_DELIVERY, b, None))
                    if trace is not None:
                        self._trace(t, "downlink", b, a)
                    continue
                nxt, via_backup = _WAIT if dst < 0 else decide(
                    b.tos, a, dst, primary, backup, busy_flags, b.detoured)
                if nxt < 0:
                    if len(wait_queues[a]) < wait_capacity:
                        wait_queues[a].append(b)
                        wait_enqueues += 1
                        if trace is not None:
                            self._trace(t, "wait", b, a)
                    else:
                        stats.record_drop(t, a, b.tos, DropReason.ROUTE_WAIT_OVERFLOW)
                        if trace is not None:
                            self._trace(t, "drop", b, a)
                    continue
                if via_backup:
                    backup_forwards += 1
                    b.detoured = True
                links = chan_free[a]
                free = links[nxt]
                depart = t if t >= free else free
                links[nxt] = depart + chan_period
                heappush(heap, (depart + link_delay(a, nxt, depart), seq(), _EV_LINK, b, nxt))
                if trace is not None:
                    self._trace(depart, "forward", b, a)
                continue

            if head is source:  # _EV_SOURCE: packet a is created
                t, _, _, a, _ = source
                stats.record_generated(a)
                src = access[a.src_user]
                if src < 0:
                    stats.record_drop(t, -1, a.tos, DropReason.ACCESS_BLOCKED)
                else:
                    delay = slant_delay(a.src_user, src, t)
                    heappush(heap, (t + delay, seq(), _EV_UPLINK, a, src))
                    if trace is not None:
                        self._trace(t, "generated", a, src)
                nxt = next(stream, None)
                source = exhausted if nxt is None else (nxt[0], seq(), _EV_SOURCE, nxt[1], None)
                continue

            t, s, kind, a, b = heappop(heap)
            if kind <= _EV_UPLINK:  # _EV_LINK or _EV_UPLINK: packet a reaches satellite b
                if kind == _EV_LINK:
                    a.hop += 1
                    if trace is not None:
                        self._trace(t, "link_arrival", a, b)
                if kind == _EV_LINK or count_uplink:
                    notif = congs[b].record_arrival(t, ccfg)
                    if notif is not None:
                        backup = self._notify(((b, notif),), released)
                if in_service[b] is None and idle_start:
                    schedulers[b].start(a)
                    in_service[b] = a
                    svc_push((t + service_period, seq(), _EV_SERVICE, b, a))
                elif not schedulers[b].enqueue(a):
                    stats.record_drop(t, b, a.tos, DropReason.BUFFER_OVERFLOW)
                    if trace is not None:
                        self._trace(t, "drop", a, b)
            elif kind == _EV_DELIVERY:
                stats.record_delivery(a, t)
                if trace is not None:
                    self._trace(t, "deliver", a, -1)
            elif kind == _EV_END:
                break
            else:  # _EV_ACCESS, _EV_SLOT or _EV_SWEEP: the a-th event of its kind
                period, last = periodic[kind]
                if a < last:
                    heappush(heap, ((a + 1) * period, s + 1, kind, a + 1, None))
                if kind == _EV_ACCESS:
                    access = access_row(a)
                elif kind == _EV_SWEEP:
                    notifs = []
                    for i, cong in enumerate(congs):
                        n = cong.evaluate(t, ccfg)
                        if n is not None:
                            notifs.append((i, n))
                    if notifs:
                        backup = self._notify(notifs, released)
                else:  # _EV_SLOT
                    primary, backup = self._rebuild_for_slot(t, a)
                    self._release(released)

        residual = sum(1 for ev in heap if ev[2] in _IN_FLIGHT)
        for i in range(self.n):
            residual += schedulers[i].size + len(wait_queues[i])
            if in_service[i] is not None:
                residual += 1
        stats.backup_forwards += backup_forwards
        stats.wait_enqueues += wait_enqueues
        stats.residual = residual
        return stats


def run(cfg: ScenarioConfig) -> StatsCollector:
    return Simulation(cfg).run()


def conservation_audit(report: StatsCollector) -> bool:
    """Exact accounting: generated = delivered + dropped + residual."""
    return report.generated_total() == (
        report.delivered_total() + report.dropped_total() + report.residual
    )
