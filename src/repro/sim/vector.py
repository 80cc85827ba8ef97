"""The vectorized event core: the message life cycle on flat state.

This is the fast realisation of the message life cycle
(``kernel="vectorized"``).  It abandons the generic DES environment: the
run executes on a specialised integer-dispatch loop over one ``heapq``
list, with every piece of per-message and per-channel state held in flat
parallel lists.  Three things make it fast:

* **one plain heap** — an event is a ``(time, seq, payload)`` tuple, where
  ``payload`` packs ``(ident << 3) | kind`` into one int and ``seq`` counts
  pushes: no event objects, callbacks or generator resumes.  Measured event
  frontiers are one event wide, so the loop pops one event at a time.
* **arrivals** — :func:`~repro.workloads.batch.predraw` draws, before the
  loop and with sized NumPy calls, exactly the messages the run can
  generate, replacing one generator resume plus three scalar RNG round
  trips per message (bit-identical by the property pinned in
  ``tests/workloads/test_batch.py``); this is what the kernel's name refers
  to.  The loop reads them from plain per-source lists by cursor and never
  draws.
* **grant elision** — the delay-0 grant hop is collapsed into its acquire
  on schedules where that is provably order-safe (see
  :meth:`VectorizedRunState._grant_elision_safe`), which removes nearly
  half of all events.

**Event-sequence bit-identity.**  The generator path
(:func:`~repro.sim.wormhole.compiled_transfer` on
:class:`~repro.des.Environment`) is the executable specification; this
kernel replays its schedule exactly, by construction:

* the environment pops in ``(time, priority, eid)`` order with ``eid``
  allocated in scheduling order.  Every event that does work in the
  specification is scheduled at NORMAL priority, and this kernel makes the
  matching push at the same simulation time and, among pushes that can
  land on the same time, in the same relative order, so ``(time, seq)``
  order is the environment's order.  Pushes for the current time — grants
  on the non-elided path, zero-length tails and the stop markers — go into
  the same heap, where their ``seq`` puts them after everything already
  queued at that time, exactly where a larger ``eid`` puts them;
* one pair of pushes is swapped: a fresh transfer acquires its first
  channel before its source schedules the next arrival, where the
  specification's URGENT ``Initialize`` runs the acquire just after.  The
  pair lands at ``t`` (``t + h`` when the grant is elided) and
  ``t + gap``, so it can tie only on a zero gap or, elided, on a gap equal
  to a header time, which :meth:`VectorizedRunState._grant_elision_safe`
  rules out;
* ``seq`` starts with the guard timeout (0), then each source's first
  arrival in source order: the specification schedules its guard before
  any source draws a gap;
* the specification's bookkeeping events (URGENT ``Initialize`` kick-offs,
  process-completion events) do no work in the transfer, so dropping them
  renumbers event ids without reordering any two surviving events;
* ``run(until=done | guard)`` stop semantics are replayed with markers:
  ``done.succeed()`` schedules the done event at NORMAL priority, whose
  processing schedules the condition, whose processing stops the run —
  two hops, so events scheduled in between still fire.  ``_EV_DONE``
  followed by ``_EV_STOP`` reproduce the cutoff event for event; the guard
  timeout has one hop and pushes ``_EV_STOP`` directly;
* statistics arithmetic is shared:
  :meth:`~repro.sim.statistics.StatisticsCollector.record_delivery`
  performs the identical float operations in the identical order as the
  message-object path, and channel accounting accumulates ``busy_time`` on
  release exactly like :class:`~repro.sim.network.FlatChannels`.

The golden-seed regression pins every scenario to the fixture under this
kernel, and ``tests/sim/test_vectorized.py`` pins it against the generator
path directly, including on random small topologies.
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.sim.config import SimulationConfig
from repro.sim.statistics import StatisticsCollector
from repro.utils.rng import RandomStreams
from repro.workloads.batch import predraw
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals

__all__ = ["VectorizedRunState"]

#: Payload encoding: ``(ident << 3) | kind`` packs an event into one int.
_EV_ARRIVAL = 0   # ident = source id
_EV_HEADER = 1    # ident = transfer row
_EV_TAIL = 2      # ident = transfer row
_EV_GUARD = 3     # ident unused
_EV_GRANT = 4     # ident = transfer row (non-elided schedules only)
_EV_DONE = 5      # ident unused: the done -> condition -> stop cascade
_EV_STOP = 6      # ident unused

#: Safety margin over the clock's unit-in-the-last-place used by the grant
#: elision precondition: two deterministic schedule deltas are "separated"
#: when they differ by more than ``max_time * 2**-50`` (four ulps of the
#: largest representable clock value, so no reachable ``time + delta`` pair
#: can round together).
_ULP_MARGIN = 2.0 ** -50


class VectorizedRunState:
    """One simulation run on the vectorized core (drop-in for ``_RunState``)."""

    def __init__(
        self, simulator, lambda_g: float, config: SimulationConfig
    ) -> None:
        self.simulator = simulator
        self.lambda_g = lambda_g
        self.config = config
        self.streams = RandomStreams(config.seed, pooled=True)
        self.arrivals = simulator.arrivals_factory(lambda_g)
        core = simulator.core
        self.collector = StatisticsCollector(num_clusters=core.spec.num_clusters)
        self.timed_out = False
        self.now = 0.0
        self.events_processed = 0
        # -- flat channel state (the FlatChannels protocol on flat lists) --
        # Plain lists, not ndarrays: the scalar loop reads and writes one
        # element at a time, where a list indexes in ~40ns but a numpy
        # scalar access boxes through __getitem__/__setitem__ at several
        # times that.  Arithmetic on the Python floats is the same IEEE
        # double arithmetic, so accounting stays bit-identical.
        num_slots = core.total_slots
        self._holder: List[int] = [-1] * num_slots
        self._granted_at: List[float] = [0.0] * num_slots
        self._busy_time: List[float] = [0.0] * num_slots
        self._total_grants: List[int] = [0] * num_slots
        self._queues: List[Optional[deque]] = [None] * num_slots
        # -- transfer rows (parallel arrays, recycled through a free list) --
        self._row_slots: List[Tuple[int, ...]] = []
        self._row_pos: List[int] = []
        self._row_tail: List[float] = []
        self._row_created: List[float] = []
        self._row_injected: List[float] = []
        self._row_measured: List[bool] = []
        self._row_cluster: List[int] = []
        self._row_external: List[bool] = []
        self._free_rows: List[int] = []
        # -- journey-touch bookkeeping (mirrors _RunState._touch) ----------
        self._touched = bytearray(num_slots)
        self._pool_touch_order: List[List[int]] = [[] for _ in range(core.num_pools)]
        # -- the run's pre-drawn messages, read by a per-source cursor -----
        workload = predraw(
            simulator.system,
            simulator.pattern,
            self.arrivals,
            self.streams,
            config.total_messages,
        )
        self._source_cluster = workload.clusters
        self._source_node = workload.nodes
        self._times = workload.times
        self._dest_clusters = workload.dest_clusters
        self._dest_nodes = workload.dest_nodes
        self._exit_peers = workload.exit_peers
        self._entry_peers = workload.entry_peers
        self._cursors = [0] * len(workload.times)
        self._cluster_nodes_list = simulator._cluster_nodes
        self._elide_grants = self._grant_elision_safe()

    def _grant_elision_safe(self) -> bool:
        """Whether the delay-0 grant hop may be collapsed into its acquire.

        A channel grant's whole effect in the specification is to stamp the
        injection time (first hop only) and push the header one header time
        ahead; everything it mutates at grant *scheduling* (holder, grant
        counters) this kernel mutates there too.  Eliding the hop therefore
        only gives the header push an earlier ``seq``: it is pushed where
        the grant is scheduled (the acquire of a free channel, or the
        release that hands a busy one on) instead of when the grant would
        have popped.  Both moments share one clock value ``t`` (the grant
        is a delay-0 event), so the header at ``t + h`` can only change
        places with an event pushed at ``t`` in between, at ``t + d`` for a
        delta ``d`` that is one of:

        * another header delta — harmless: that header is elided too, both
          pushes moved to where their grants were scheduled, in the order
          the grants would have popped, so the pair keeps its relative
          order;
        * a tail delta ``(M - 1) * h'``;
        * the inter-arrival gap of a source processed in the window;
        * zero — the done and stop markers.

        The pair swaps only if ``t + h == t + d``.  It therefore suffices
        that every *header* delta differs from every tail, gap and zero
        delta by more than four ulps of the largest reachable clock: no
        ``t + h`` and ``t + d`` can then round to equality.  Header deltas
        may coincide among themselves.  Poisson gaps are continuous draws —
        a half-ulp coincidence with a header delta has the same measure-zero
        status as a zero gap, and the golden fixtures pin the actual seeds.
        Unknown arrival processes disable elision outright.
        """
        headers = {float(h) for h in self.simulator._header_times}
        # Exact types only: a subclass may override the gap distribution,
        # which would void the separation argument below.
        arrivals = self.arrivals
        if type(arrivals) is DeterministicArrivals:
            gaps = (1.0 / arrivals.rate,)
        elif type(arrivals) is PoissonArrivals:
            gaps = ()
        else:
            return False
        tail_flits = self.simulator.message.length_flits - 1
        others = {0.0, *(tail_flits * h for h in headers), *gaps}
        margin = self.config.max_time * _ULP_MARGIN
        return all(abs(h - d) > margin for h in headers for d in others)

    # ------------------------------------------------------------- execution
    def execute(self) -> None:
        """Run the event loop to the stop marker, with cyclic GC suspended.

        Same policy as the generator path: the loop creates no cyclic
        garbage, and collector passes would rescan the large, immortal
        compiled route tables.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._loop()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _loop(self) -> None:
        # Local aliases: this loop processes hundreds of thousands of
        # events and every global/attribute lookup in it is measurable.
        simulator = self.simulator
        config = self.config
        routes = simulator.routes
        core = simulator.core
        # Plain floats: one scalar indexing of an ndarray costs more than
        # the whole list lookup, and the boxed np.float64 would propagate
        # into every scheduled time.
        header_times = [float(h) for h in simulator._header_times]
        cluster_nodes = self._cluster_nodes_list
        num_clusters = core.spec.num_clusters
        concentrator = routes.concentrator
        dispatcher = routes.dispatcher
        routes_intra = routes.intra
        intra_has_switch = routes.intra_has_switch
        routes_ascend = routes.ascend
        routes_icn2 = routes.icn2
        routes_descend = routes.descend
        tail_flits = simulator.message.length_flits - 1
        t_cn = simulator._t_cn
        max_header = simulator._max_header
        intra_headers = (t_cn, max_header)

        total_messages = config.total_messages
        warmup = config.warmup_messages
        measured_end = warmup + config.measured_messages
        measured_target = config.measured_messages

        holder = self._holder
        granted_at = self._granted_at
        busy_time = self._busy_time
        total_grants = self._total_grants
        queues = self._queues
        row_slots = self._row_slots
        row_pos = self._row_pos
        row_tail = self._row_tail
        row_created = self._row_created
        row_injected = self._row_injected
        row_measured = self._row_measured
        row_cluster = self._row_cluster
        row_external = self._row_external
        free_rows = self._free_rows
        arrival_times = self._times
        drawn_clusters = self._dest_clusters
        drawn_nodes = self._dest_nodes
        drawn_exits = self._exit_peers
        drawn_entries = self._entry_peers
        cursors = self._cursors
        source_cluster = self._source_cluster
        source_node = self._source_node
        touched = self._touched
        pool_index = core.pool_index_list
        pool_order = self._pool_touch_order
        record_delivery = self.collector.record_delivery
        # Collapse the delay-0 grant hop into its acquire when provably
        # order-safe (see _grant_elision_safe) — grants are nearly half of
        # all events.
        elide = self._elide_grants

        # -- initial schedule: the guard first, then every first arrival ---
        heap = [(config.max_time, 0, _EV_GUARD)]
        heap.extend(
            (times[0], source + 1, (source << 3) | _EV_ARRIVAL)
            for source, times in enumerate(arrival_times)
        )
        heapify(heap)
        # the next push's sequence number (== pushes so far)
        seq = len(heap)

        generated = 0
        delivered = 0
        done_fired = False

        def start_transfer(created_at, measured, external, cluster, slots, tail):
            if free_rows:
                row = free_rows.pop()
                row_slots[row] = slots
                row_pos[row] = 0
                row_tail[row] = tail
                row_created[row] = created_at
                row_measured[row] = measured
                row_cluster[row] = cluster
                row_external[row] = external
            else:
                row = len(row_slots)
                row_slots.append(slots)
                row_pos.append(0)
                row_tail.append(tail)
                row_created.append(created_at)
                row_injected.append(0.0)
                row_measured.append(measured)
                row_cluster.append(cluster)
                row_external.append(external)
            return row

        # The guard stays queued until it pops, and its pop queues the stop,
        # so the heap cannot drain before the loop breaks.
        while True:
            time, _, payload = heappop(heap)
            kind = payload & 7
            ident = payload >> 3
            if kind == _EV_HEADER:
                position = row_pos[ident] + 1
                slots = row_slots[ident]
                if position < len(slots):
                    row_pos[ident] = position
                    slot = slots[position]
                    if holder[slot] < 0:
                        holder[slot] = ident
                        granted_at[slot] = time
                        total_grants[slot] += 1
                        if elide:
                            # Headers advance to position >= 1 before
                            # acquiring, so no injection stamp.
                            heappush(heap, (time + header_times[slot], seq, payload))
                        else:
                            heappush(heap, (time, seq, (ident << 3) | _EV_GRANT))
                        seq += 1
                    else:
                        queue = queues[slot]
                        if queue is None:
                            queue = queues[slot] = deque()
                        queue.append(ident)
                    continue
                tail = row_tail[ident]
                if tail > 0.0:
                    heappush(heap, (time + tail, seq, (ident << 3) | _EV_TAIL))
                    seq += 1
                    continue
                kind = _EV_TAIL  # delivered with no body: fall through
            if kind == _EV_TAIL:
                if row_measured[ident]:
                    record_delivery(
                        row_cluster[ident],
                        row_external[ident],
                        row_created[ident],
                        row_injected[ident],
                        time,
                    )
                    delivered += 1
                    if delivered >= measured_target and not done_fired:
                        done_fired = True
                        heappush(heap, (time, seq, _EV_DONE))
                        seq += 1
                # Release in acquisition order, waking each slot's FIFO head.
                for slot in row_slots[ident]:
                    busy_time[slot] += time - granted_at[slot]
                    queue = queues[slot]
                    if queue:
                        successor = queue.popleft()
                        holder[slot] = successor
                        granted_at[slot] = time
                        total_grants[slot] += 1
                        if elide:
                            if row_pos[successor] == 0:
                                row_injected[successor] = time
                            heappush(
                                heap,
                                (time + header_times[slot], seq, (successor << 3) | _EV_HEADER),
                            )
                        else:
                            heappush(heap, (time, seq, (successor << 3) | _EV_GRANT))
                        seq += 1
                    else:
                        holder[slot] = -1
                row_slots[ident] = ()
                free_rows.append(ident)
            elif kind == _EV_ARRIVAL:
                if generated >= total_messages:
                    continue  # the source retires without drawing
                index = generated
                generated = index + 1
                cursor = cursors[ident]
                dest_cluster = drawn_clusters[ident][cursor]
                dest_node = drawn_nodes[ident][cursor]
                cluster = source_cluster[ident]
                node = source_node[ident]
                if dest_cluster == cluster:
                    pair = node * cluster_nodes[cluster] + dest_node
                    slots = routes_intra[cluster][pair]
                    tail = tail_flits * intra_headers[intra_has_switch[cluster][pair]]
                    external = False
                    for slot in slots:
                        if not touched[slot]:
                            touched[slot] = 1
                            pool_order[pool_index[slot]].append(slot)
                else:
                    source_nodes = cluster_nodes[cluster]
                    dest_nodes = cluster_nodes[dest_cluster]
                    ascent = routes_ascend[cluster][
                        node * source_nodes + drawn_exits[ident][cursor]
                    ]
                    crossing = routes_icn2[cluster * num_clusters + dest_cluster]
                    descent = routes_descend[dest_cluster][
                        drawn_entries[ident][cursor] * dest_nodes + dest_node
                    ]
                    for group in (ascent, crossing, descent):
                        for slot in group:
                            if not touched[slot]:
                                touched[slot] = 1
                                pool_order[pool_index[slot]].append(slot)
                    slots = (
                        ascent
                        + (concentrator[cluster],)
                        + crossing
                        + (dispatcher[dest_cluster],)
                        + descent
                    )
                    tail = tail_flits * max_header
                    external = True
                row = start_transfer(
                    time, warmup <= index < measured_end, external, cluster, slots, tail
                )
                slot = slots[0]
                if holder[slot] < 0:
                    holder[slot] = row
                    granted_at[slot] = time
                    total_grants[slot] += 1
                    if elide:
                        # A fresh transfer acquires at position 0: the
                        # elided grant's injection stamp lands here.
                        row_injected[row] = time
                        heappush(
                            heap, (time + header_times[slot], seq, (row << 3) | _EV_HEADER)
                        )
                    else:
                        heappush(heap, (time, seq, (row << 3) | _EV_GRANT))
                    seq += 1
                else:
                    queue = queues[slot]
                    if queue is None:
                        queue = queues[slot] = deque()
                    queue.append(row)
                cursor += 1
                cursors[ident] = cursor
                heappush(heap, (arrival_times[ident][cursor], seq, payload))
                seq += 1
            elif kind == _EV_GRANT:
                position = row_pos[ident]
                if position == 0:
                    # The wait for the injection slot is the source-queue
                    # delay of the analytical model.
                    row_injected[ident] = time
                slot = row_slots[ident][position]
                heappush(heap, (time + header_times[slot], seq, (ident << 3) | _EV_HEADER))
                seq += 1
            elif kind == _EV_STOP:
                break  # nothing queued behind the stop may run
            else:  # _EV_DONE or _EV_GUARD — one hop to the stop
                heappush(heap, (time, seq, _EV_STOP))
                seq += 1

        self.now = time
        self.timed_out = not done_fired
        # Every push took one seq and every pop processed one event.
        self.events_processed = seq - len(heap)

    # ----------------------------------------------------------- utilisation
    def channel_utilisation(self) -> Dict[str, tuple]:
        """Identical aggregation to ``_RunState.channel_utilisation``.

        Same first-touch ordering, same float arithmetic (float64 array
        cells follow IEEE double exactly like Python floats); values are
        converted to built-in floats so results serialise identically.
        """
        elapsed = self.now
        if elapsed <= 0:
            return {}
        core = self.simulator.core
        busy = self._busy_time
        num_clusters = core.spec.num_clusters
        labels = core.utilisation_labels
        report: Dict[str, tuple] = {}
        for label, start in ((labels[0], 0), (labels[1], num_clusters)):
            values = []
            for pool in range(start, start + num_clusters):
                order = self._pool_touch_order[pool]
                if not order:
                    continue
                fractions = [min(busy[slot] / elapsed, 1.0) for slot in order]
                values.append((sum(fractions) / len(fractions), max(fractions)))
            if values:
                report[label] = (
                    float(sum(mean for mean, _ in values) / len(values)),
                    float(max(peak for _, peak in values)),
                )
        icn2_order = self._pool_touch_order[2 * num_clusters]
        if icn2_order:
            fractions = [min(busy[slot] / elapsed, 1.0) for slot in icn2_order]
            report[labels[2]] = (
                float(sum(fractions) / len(fractions)),
                float(max(fractions)),
            )
        grants = self._total_grants
        relay_fractions = [
            min(busy[slot] / elapsed, 1.0)
            for slot in (
                *range(core.concentrator_base, core.concentrator_base + num_clusters),
                *range(core.dispatcher_base, core.dispatcher_base + num_clusters),
            )
            if grants[slot]
        ]
        if relay_fractions:
            report[labels[3]] = (
                float(sum(relay_fractions) / len(relay_fractions)),
                float(max(relay_fractions)),
            )
        return report
