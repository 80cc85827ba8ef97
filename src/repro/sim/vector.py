"""The vectorized kernel: the message life cycle on a native event core.

This is the fast realisation of the message life cycle
(``kernel="vectorized"``).  It abandons the generic DES environment: a run
is one call into a C event loop (``event_core.c``, built and loaded by
:mod:`repro.sim.native`) over flat arrays, with flat arrays coming back.
Three things make it fast:

* **arrivals** — :func:`~repro.workloads.batch.predraw` draws, before the
  loop and with sized NumPy calls, exactly the messages the run can
  generate, replacing one generator resume plus three scalar RNG round
  trips per message (bit-identical by the property pinned in
  ``tests/workloads/test_batch.py``); this is what the kernel's name refers
  to.  The loop reads them from flat arrays by a per-source cursor, which
  it bounds-checks, and never draws.
* **a native loop on one plain heap** — an event is a ``(time, seq,
  payload)`` triple, where ``payload`` packs ``(ident << 3) | kind`` and
  ``seq`` counts pushes; channel state, transfer rows and per-channel FIFO
  queues are C arrays.  Routes come from the CSR tables of
  :class:`~repro.routing.compile.FlatRoutes`, each cluster's channel offset
  added as a journey is copied.
* **grant elision** — the delay-0 grant hop is collapsed into its acquire
  on schedules where that is provably order-safe (see
  :meth:`VectorizedRunState._grant_elision_safe`), which removes nearly
  half of all events.

**Event-sequence bit-identity.**  The generator path
(:func:`~repro.sim.wormhole.compiled_transfer` on
:class:`~repro.des.Environment`) is the executable specification; the
native loop replays its schedule exactly, by construction:

* the environment pops in ``(time, priority, eid)`` order with ``eid``
  allocated in scheduling order.  Every event that does work in the
  specification is scheduled at NORMAL priority, and the loop makes the
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
  two hops, so events scheduled in between still fire.  A done marker
  followed by a stop marker reproduces the cutoff event for event; the
  guard timeout has one hop and pushes the stop directly;
* float arithmetic is the specification's: the loop is compiled without
  contraction or fast-math, channel accounting accumulates ``busy_time``
  on release exactly like :class:`~repro.sim.network.FlatChannels`, and
  :meth:`~repro.sim.statistics.StatisticsCollector.record_deliveries`
  folds the returned deliveries in delivery order with the identical
  operations per-message :meth:`~repro.sim.statistics.StatisticsCollector.record`
  performs.

The golden-seed regression pins every scenario to the fixture under this
kernel, and ``tests/sim/test_vectorized.py`` pins it against the generator
path directly, including on random small topologies.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.sim import native
from repro.sim.config import SimulationConfig
from repro.sim.statistics import StatisticsCollector, channel_utilisation
from repro.utils.rng import RandomStreams
from repro.workloads.batch import predraw
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals

__all__ = ["VectorizedRunState"]

#: Safety margin over the clock's unit-in-the-last-place used by the grant
#: elision precondition: two deterministic schedule deltas are "separated"
#: when they differ by more than ``max_time * 2**-50`` (four ulps of the
#: largest representable clock value, so no reachable ``time + delta`` pair
#: can round together).
_ULP_MARGIN = 2.0 ** -50


class VectorizedRunState:
    """One simulation run on the native event core (drop-in for ``_RunState``)."""

    def __init__(
        self, simulator, lambda_g: float, config: SimulationConfig
    ) -> None:
        self.simulator = simulator
        self.lambda_g = lambda_g
        self.config = config
        self.streams = RandomStreams(config.seed, pooled=True)
        self.arrivals = simulator.arrivals_factory(lambda_g)
        self.collector = StatisticsCollector(num_clusters=simulator.core.spec.num_clusters)
        self.timed_out = False
        self.now = 0.0
        self.events_processed = 0
        #: the event core's flat outputs (:class:`~repro.sim.native.CoreOutcome`)
        self.outcome = None
        system = simulator.system
        #: the run's pre-drawn messages, read by the loop's per-source cursor
        self.workload = predraw(
            system,
            simulator.pattern.for_run(self.streams, system),
            self.arrivals,
            self.streams,
            config.total_messages,
        )
        senders = self.workload.nodes[self.workload.counts() > 0]
        self._routes = simulator.routes.flat(senders)
        self._elide_grants = self._grant_elision_safe()
        # Build or load the event core here, outside the timed loop.
        native.load()

    def _grant_elision_safe(self) -> bool:
        """Whether the delay-0 grant hop may be collapsed into its acquire.

        A channel grant's whole effect in the specification is to stamp the
        injection time (first hop only) and push the header one header time
        ahead; everything it mutates at grant *scheduling* (holder, grant
        counters) the loop mutates there too.  Eliding the hop therefore
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
        """Run the event loop to the stop marker and record its deliveries."""
        outcome = self.outcome = native.run_core(
            self.simulator, self.workload, self._routes, self.config, self._elide_grants
        )
        self.now = outcome.now
        self.timed_out = not outcome.done
        self.events_processed = outcome.events
        self.collector.record_deliveries(
            outcome.clusters,
            outcome.external,
            outcome.created,
            outcome.injected,
            outcome.delivered,
        )

    # ----------------------------------------------------------- utilisation
    def channel_utilisation(self) -> Dict[str, tuple]:
        """Identical aggregation to ``_RunState.channel_utilisation``."""
        core = self.simulator.core
        order = self.outcome.touch_order
        pools = np.asarray(core.pool_index_list)[order]
        pool_touch_order = [order[pools == pool].tolist() for pool in range(core.num_pools)]
        return channel_utilisation(
            core,
            self.outcome.busy_time.tolist(),
            self.outcome.total_grants.tolist(),
            pool_touch_order,
            self.now,
        )
