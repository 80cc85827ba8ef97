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

Per-run random streams start from pooled PCG64 states of
:mod:`repro.utils.rng` in both kernels: restored
:class:`~numpy.random.Generator` snapshots in the generator kernel, one
flat block of states per (seed, system) in the vectorized one.  The event
sequence is identical across the two kernels, and both end a run with the
same :class:`~repro.sim.statistics.RunOutcome`, which
:func:`~repro.sim.statistics.summarise` folds into the run's
:class:`SimulationResult`; the golden-seed regression pins their
statistics to the committed fixtures and to each other.
"""

from __future__ import annotations

import gc
import os
import time as _time
from typing import List, Optional

import numpy as np

from repro.des import Environment
from repro.model.parameters import MessageSpec, PAPER_TIMING, TimingParameters
from repro.routing.compile import compile_system_routes
from repro.sim import native
from repro.sim.config import SimulationConfig
from repro.sim.message import Message
from repro.sim.network import FlatChannels
from repro.sim.statistics import RunOutcome, SimulationResult, summarise
from repro.sim.vector import VectorizedRunState
from repro.sim.wormhole import compiled_transfer, draw_peer
from repro.topology.compile import compile_system
from repro.utils.rng import RandomStreams, stream_states
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
#: distributed-concentrator peers), in the order each node's states sit in
#: the flat block the native pre-draw reads.
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
        into a simulated counterpart of the variance ablation
        (:func:`repro.experiments.ablation.variance_ablation`).  The vectorized
        kernel draws the built-in arrival processes and patterns only; any
        other class needs ``kernel="generator"``.
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
        #: per-slot flit transfer times (relay slots carry the switch time)
        self._header_times = self.core.header_times(self._t_cn, self._t_cs)
        self._distinct_header_times = frozenset(map(float, self._header_times))
        self._pool_index = np.asarray(self.core.pool_index_list)
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
        record = state.execute()
        elapsed = _time.perf_counter() - started
        return summarise(
            record,
            self.core,
            self._pool_index,
            lambda_g=lambda_g,
            seed=run_config.seed,
            wall_clock_seconds=elapsed,
        )

    def stream_states(self, streams: RandomStreams) -> np.ndarray:
        """The (arrivals, destinations, peers) PCG64 states of every node.

        One read-only block per (seed, system), derived once and pooled by
        :func:`repro.utils.rng.stream_states`, with numpy's whole seeding
        run in C (:func:`repro.sim.native.seed_states`).
        """
        return stream_states(streams, STREAM_KINDS, self._cluster_nodes, native.seed_states)

    def warm_streams(self, config: Optional[SimulationConfig] = None) -> None:
        """Derive every per-node stream's initial state once for the run seed.

        Seeding a stream mixes its key through SeedSequence — in Python,
        the dominant per-run setup cost on 1000+-node systems.  On the
        vectorized kernel this derives the run seed's flat block of initial
        PCG64 states (:meth:`stream_states`, mixed in C) into the
        module-level pool of :mod:`repro.utils.rng`, building and loading
        the native library on the way, and builds no
        :class:`~numpy.random.Generator`: every later run of the same seed
        (each sweep point, and — under a fork start — every pool worker)
        finds the block with one lookup.  The generator kernel snapshots
        its generators on first use instead, so this does nothing there.
        """
        if self.kernel != "vectorized":
            return
        run_config = config if config is not None else self.config
        self.stream_states(RandomStreams(run_config.seed))

    def prepare(self, config: Optional[SimulationConfig] = None) -> None:
        """Pay every remaining setup cost now, outside any timed region.

        Covers the stream states (:meth:`warm_streams`; on the vectorized
        kernel that also builds and loads the native library) and the
        route layout the kernels read — for a zoo topology, every route
        row, since a uniform pattern touches every source row eventually —
        so none of it lands in the first timed run or in every process-pool
        worker.
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
        slots = simulator.core.total_slots
        self.channels = FlatChannels(self.env, slots)
        #: which slots appeared on any built journey, in first-touch order —
        #: the order utilisation aggregation sums in, on both kernels
        self._touched = bytearray(slots)
        self._touch_order: List[int] = []
        #: the measured deliveries in delivery order, preallocated as the
        #: native core preallocates them
        measured = config.measured_messages
        self._clusters = np.zeros(measured, dtype=np.int32)
        self._external = np.zeros(measured, dtype=bool)
        self._created = np.zeros(measured, dtype=np.float64)
        self._injected = np.zeros(measured, dtype=np.float64)
        self._delivered = np.zeros(measured, dtype=np.float64)
        self.generated = 0
        self.delivered_measured = 0
        self.done = self.env.event()

    # ------------------------------------------------------------- execution
    def execute(self) -> RunOutcome:
        """Run the environment until the measured messages are in or the
        guard fires, and return the run's record."""
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
        count = self.delivered_measured
        return RunOutcome(
            self._clusters[:count],
            self._external[:count],
            self._created[:count],
            self._injected[:count],
            self._delivered[:count],
            np.array(self.channels.busy_time, dtype=np.float64),
            np.array(self.channels.total_grants, dtype=np.int64),
            np.array(self._touch_order, dtype=np.int32),
            self.env.now,
            self.env.events_processed,
            self.done.triggered,
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
        """Record journey slots in first-touch order."""
        touched = self._touched
        order = self._touch_order
        for slot in slots:
            if not touched[slot]:
                touched[slot] = 1
                order.append(slot)

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
        """Write a measured delivery into the record's next row."""
        if not message.measured:
            return
        row = self.delivered_measured
        self._clusters[row] = message.source_cluster
        self._external[row] = message.is_external
        self._created[row] = message.created_at
        self._injected[row] = message.injected_at
        self._delivered[row] = message.delivered_at
        self.delivered_measured = row + 1
        if self.delivered_measured >= self.config.measured_messages and not self.done.triggered:
            self.done.succeed()
