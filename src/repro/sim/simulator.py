"""The top-level multi-cluster wormhole simulator.

:class:`MultiClusterSimulator` takes the same inputs as the analytical model
(a :class:`MultiClusterSpec`, a message geometry, channel timing) plus a
traffic pattern and a statistics budget, and produces a
:class:`SimulationResult` per operating point.  A latency-versus-offered-
traffic sweep therefore needs nothing more than::

    simulator = MultiClusterSimulator(spec, MessageSpec(32, 256))
    results = [simulator.run(lambda_g) for lambda_g in offered_traffic]

Each run builds a fresh discrete-event environment, so runs are independent
and reproducible from their seed.

Since the compiled-core refactor the simulator executes on the flat-array
hot path: the constructor pulls the (module-cached) compiled channel-id
space of the organisation (:func:`repro.topology.compile.compile_system`)
and its CSR route tables
(:func:`repro.routing.compile.compile_system_routes`), and every message
moves over dense integer channel ids.  Two kernels realise the message life
cycle, selectable per constructor or via ``REPRO_SIM_KERNEL``:

* ``kernel="vectorized"`` (default) — :mod:`repro.sim.vector`: the run's
  messages pre-drawn before the loop, then one call into a native C event
  loop over flat route and message arrays (built on the first simulation
  by :mod:`repro.sim.native`; it needs a C compiler);
* ``kernel="generator"`` — the executable specification: one
  :func:`~repro.sim.wormhole.compiled_transfer` coroutine per message on
  the generic :class:`~repro.des.Environment` heap, reading the same route
  tables.  It is the only pure-Python path.

Per-run random streams are restored from the pooled PCG64 snapshots of
:mod:`repro.utils.rng` in both kernels.  The event sequence is identical
across the two kernels; the golden-seed regression pins their statistics
to the committed fixtures and to each other.
"""

from __future__ import annotations

import gc
import os
import time as _time
from typing import Dict, List, Optional

from repro.des import Environment
from repro.model.parameters import MessageSpec, PAPER_TIMING, TimingParameters
from repro.routing.compile import compile_system_routes
from repro.sim.config import SimulationConfig
from repro.sim.message import Message
from repro.sim.network import FlatChannels
from repro.sim.statistics import SimulationResult, StatisticsCollector, channel_utilisation
from repro.sim.vector import VectorizedRunState
from repro.sim.wormhole import compiled_transfer, draw_peer
from repro.topology.compile import compile_system
from repro.utils.rng import RandomStreams
from repro.utils.validation import ValidationError, check_positive
from repro.workloads.base import TrafficPattern
from repro.workloads.poisson import PoissonArrivals
from repro.workloads.uniform import UniformTraffic

#: Recognised message-kernel realisations: the generator-coroutine
#: specification (:mod:`repro.sim.wormhole`) and the native event core
#: (:mod:`repro.sim.vector`).
KERNEL_MODES = ("generator", "vectorized")

#: Kernel used when neither the constructor nor ``REPRO_SIM_KERNEL`` selects
#: one.  The result store's task keys hash this default, so it must live
#: here — next to the code it selects — not as a copied literal.
DEFAULT_KERNEL = "vectorized"

#: Per-node stream kinds a run draws from (arrival gaps, destinations,
#: distributed-concentrator peers).
STREAM_KINDS = ("arrivals", "destinations", "peers")


class MultiClusterSimulator:
    """Discrete-event wormhole simulator of a heterogeneous multi-cluster system.

    Parameters
    ----------
    spec:
        The system organisation: a
        :class:`~repro.topology.multicluster.MultiClusterSpec` (e.g. a
        Table 1 row) or a zoo
        :class:`~repro.topology.zoo.spec.TopologySpec`.
    message:
        Message geometry (``M`` flits of ``L_m`` bytes).
    timing:
        Channel timing; defaults to the paper's values.
    config:
        Statistics budget (warm-up / measured / drain counts and the seed).
    pattern:
        Destination distribution; defaults to the paper's uniform pattern.
    arrivals_factory:
        Callable mapping an offered traffic ``lambda_g`` to an
        :class:`~repro.workloads.base.ArrivalProcess`; defaults to Poisson
        generation (assumption 1).  Passing
        :class:`~repro.workloads.DeterministicArrivals` turns the generator
        into the variance ablation discussed in DESIGN.md.
    kernel:
        Message-lifecycle realisation: ``"vectorized"`` (default) runs the
        native event core of :class:`~repro.sim.vector.VectorizedRunState`;
        ``"generator"`` keeps the coroutine specification path
        (:func:`~repro.sim.wormhole.compiled_transfer`) on the generic
        event loop.  Both replay the identical event sequence — the choice
        affects wall-clock only.  Defaults to the ``REPRO_SIM_KERNEL``
        environment variable when unset, so a debugging session can force
        the readable path without touching code.
    """

    def __init__(
        self,
        spec,
        message: MessageSpec = MessageSpec(),
        timing: TimingParameters = PAPER_TIMING,
        config: SimulationConfig = SimulationConfig(),
        pattern: Optional[TrafficPattern] = None,
        arrivals_factory=None,
        kernel: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.message = message
        self.timing = timing
        self.config = config
        self.pattern = pattern if pattern is not None else UniformTraffic()
        self.arrivals_factory = (
            arrivals_factory if arrivals_factory is not None else PoissonArrivals
        )
        if kernel is None:
            kernel = os.environ.get("REPRO_SIM_KERNEL", DEFAULT_KERNEL)
        if kernel not in KERNEL_MODES:
            raise ValidationError(
                f"unknown simulation kernel {kernel!r}; expected one of {KERNEL_MODES}"
            )
        self.kernel = kernel
        #: compiled channel-id space and route tables (module-cached per
        #: spec: shared across operating points, engines and pool workers)
        self.core = compile_system(spec)
        self.routes = compile_system_routes(spec)
        self.system = self.core.system
        link_timing = timing.link_timing(message.flit_bytes)
        self._t_cn = link_timing.t_cn
        self._t_cs = link_timing.t_cs
        self._max_header = max(self._t_cn, self._t_cs)
        #: per-slot flit transfer times (relay slots carry the switch time,
        #: matching the relay_time of the object-path realisation)
        self._header_times = self.core.header_times(self._t_cn, self._t_cs)
        self._cluster_nodes = [cluster.num_nodes for cluster in self.system.clusters]

    # ------------------------------------------------------------------ runs
    def run(
        self,
        lambda_g: float,
        *,
        config: Optional[SimulationConfig] = None,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate one operating point and return its latency statistics."""
        check_positive(lambda_g, "lambda_g")
        run_config = config if config is not None else self.config
        if seed is not None:
            run_config = run_config.with_seed(seed)
        if self.kernel == "vectorized":
            state = VectorizedRunState(self, lambda_g, run_config)
        else:
            state = _RunState(self, lambda_g, run_config)
        started = _time.perf_counter()
        state.execute()
        elapsed = _time.perf_counter() - started
        return state.collector.result(
            lambda_g=lambda_g,
            saturated=state.timed_out,
            wall_clock_seconds=elapsed,
            channel_utilisation=state.channel_utilisation(),
            seed=run_config.seed,
            events_processed=state.events_processed,
        )

    def latency_curve(
        self,
        lambdas,
        *,
        config: Optional[SimulationConfig] = None,
    ) -> List[SimulationResult]:
        """One simulation run per offered-traffic value."""
        return [self.run(value, config=config) for value in lambdas]

    def warm_streams(self, config: Optional[SimulationConfig] = None) -> None:
        """Build every per-node random stream once for the run seed.

        Constructing a stream seeds a PCG64 generator through SeedSequence
        entropy mixing — the dominant per-run setup cost on 1000+-node
        systems.  Each construction snapshots its initial state into the
        module-level pool of :mod:`repro.utils.rng`, so every later run of
        the same seed (each sweep point, and — under a fork start — every
        pool worker) restores states instead of re-mixing.
        """
        run_config = config if config is not None else self.config
        streams = RandomStreams(run_config.seed, pooled=True)
        for cluster_index, node in self.system.nodes():
            for kind in STREAM_KINDS:
                streams.get(kind, cluster_index, node.index)

    def prepare(self, config: Optional[SimulationConfig] = None) -> None:
        """Pay every remaining setup cost now, outside any timed region.

        Covers the stream pool (:meth:`warm_streams`) and the route layout
        the kernels read — for a zoo topology, every route row, since a
        uniform pattern touches every source row eventually — so neither
        lands in the first timed run or in every process-pool worker.
        """
        self.warm_streams(config)
        self.routes.warm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        arity = getattr(self.spec, "m", None)
        detail = f"m={arity}, " if arity is not None else f"{self.spec.name}, "
        return (
            f"MultiClusterSimulator(N={self.spec.total_nodes}, C={self.spec.num_clusters}, "
            f"{detail}{self.message.describe()}, {self.pattern.describe()})"
        )


class _RunState:
    """One run of the generator specification kernel (one environment)."""

    def __init__(
        self, simulator: MultiClusterSimulator, lambda_g: float, config: SimulationConfig
    ) -> None:
        self.simulator = simulator
        self.lambda_g = lambda_g
        self.config = config
        self.env = Environment()
        self.streams = RandomStreams(config.seed, pooled=True)
        self.arrivals = simulator.arrivals_factory(lambda_g)
        self.pattern = simulator.pattern.for_run(self.streams, simulator.system)
        core = simulator.core
        self.channels = FlatChannels(self.env, core.total_slots)
        #: which slots appeared on any built journey, and in which order per
        #: pool — the order utilisation aggregation sums in, on both kernels
        self._touched = bytearray(core.total_slots)
        self._pool_touch_order: List[List[int]] = [[] for _ in range(core.num_pools)]
        self.collector = StatisticsCollector(num_clusters=core.spec.num_clusters)
        self.generated = 0
        self.delivered_measured = 0
        self.done = self.env.event()
        self.timed_out = False
        self.events_processed = 0

    # ------------------------------------------------------------- execution
    def execute(self) -> None:
        for cluster_index, node in self.simulator.system.nodes():
            self.env.process(self._source_process(cluster_index, node.index))
        guard = self.env.timeout(self.config.max_time)
        # The event loop allocates heavily (queue entries, messages) but its
        # hot path creates no cyclic garbage — everything dies by refcount.
        # Cyclic GC passes during the loop would rescan the (large, immortal)
        # compiled route tables over and over, costing up to ~40% of a run
        # on 1000-node systems, so collection is suspended for the duration
        # and any stragglers are picked up when the caller's GC resumes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.env.run(until=self.done | guard)
        finally:
            if gc_was_enabled:
                gc.enable()
        if not self.done.triggered:
            self.timed_out = True
        self.events_processed = self.env.events_processed

    # ----------------------------------------------------------- utilisation
    def channel_utilisation(self) -> Dict[str, tuple]:
        """Per-network (mean, max) channel utilisation over the whole run."""
        return channel_utilisation(
            self.simulator.core,
            self.channels.busy_time,
            self.channels.total_grants,
            self._pool_touch_order,
            self.env.now,
        )

    # ------------------------------------------------------------- processes
    def _source_process(self, cluster_index: int, node_index: int):
        """Poisson message generation at one node (assumption 1)."""
        rng = self.streams.get("arrivals", cluster_index, node_index)
        dest_rng = self.streams.get("destinations", cluster_index, node_index)
        peer_rng = self.streams.get("peers", cluster_index, node_index)
        simulator = self.simulator
        system = simulator.system
        pattern = self.pattern
        env = self.env
        config = self.config
        length_flits = simulator.message.length_flits
        warmup = config.warmup_messages
        measured_end = warmup + config.measured_messages
        while True:
            yield env.timeout(self.arrivals.next_interarrival(rng))
            if self.generated >= config.total_messages:
                return
            index = self.generated
            self.generated += 1
            destination = pattern.sample_destination(
                dest_rng, system, cluster_index, node_index
            )
            message = Message(
                index=index,
                source_cluster=cluster_index,
                source_node=node_index,
                dest_cluster=destination.cluster,
                dest_node=destination.node,
                length_flits=length_flits,
                created_at=env.now,
                measured=warmup <= index < measured_end,
            )
            slots, tail_time = self._build_journey(message, peer_rng)
            env.process(
                compiled_transfer(
                    env,
                    message,
                    slots,
                    self.channels,
                    simulator._header_times,
                    tail_time,
                    on_delivered=self._on_delivered,
                )
            )

    def _touch(self, slots) -> None:
        """Record journey slots in pool-local first-touch order."""
        touched = self._touched
        pool_index = self.simulator.core.pool_index_list
        order = self._pool_touch_order
        for slot in slots:
            if not touched[slot]:
                touched[slot] = 1
                order[pool_index[slot]].append(slot)

    def _build_journey(self, message: Message, peer_rng):
        """The journey's global slot-id tuple and its body serialisation time."""
        simulator = self.simulator
        routes = simulator.routes
        source_cluster = message.source_cluster
        dest_cluster = message.dest_cluster
        tail_flits = message.length_flits - 1
        if source_cluster == dest_cluster:
            slots, has_switch = routes.intra_route(
                source_cluster, message.source_node, message.dest_node
            )
            self._touch(slots)
            slowest = simulator._max_header if has_switch else simulator._t_cn
            return slots, tail_flits * slowest
        exit_peer = draw_peer(
            peer_rng, simulator._cluster_nodes[source_cluster], message.source_node
        )
        entry_peer = draw_peer(peer_rng, simulator._cluster_nodes[dest_cluster], message.dest_node)
        slots = routes.external_route(
            source_cluster,
            message.source_node,
            exit_peer,
            dest_cluster,
            entry_peer,
            message.dest_node,
        )
        self._touch(slots)
        # Inter-cluster journeys always cross both channel classes (injection
        # plus relay/switch hops), so the slowest hop is the slower class.
        return slots, tail_flits * simulator._max_header

    def _on_delivered(self, message: Message) -> None:
        if not message.measured:
            return
        self.collector.record(message)
        self.delivered_measured += 1
        if self.delivered_measured >= self.config.measured_messages and not self.done.triggered:
            self.done.succeed()
