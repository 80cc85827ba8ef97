"""The unified scenario/engine API — one declarative entry point for everything.

The paper's deliverable is a *comparison*: an analytical latency model and a
flit-level wormhole simulator evaluated over the same system organisations.
This module makes that comparison (and every other experiment in the package)
a single declarative call:

* :class:`Scenario` — a frozen dataclass that fully describes one experiment:
  the system organisation, the message geometry, the channel timing, the
  traffic pattern, the offered-traffic grid and the simulation statistics
  budget.  Scenarios serialise to JSON and back
  (:meth:`Scenario.to_json` / :meth:`Scenario.from_json`), so an experiment
  is a file you can version, share and replay.
* :class:`Engine` — the protocol every backend implements:
  ``evaluate(scenario, lambda_g) -> RunRecord``.  Two engines ship with the
  package: :class:`AnalyticalEngine` (the paper's queueing model, Eq. 35-36)
  and :class:`SimulationEngine` (the wormhole simulator of Section 4).
  New backends plug in through :data:`ENGINE_REGISTRY`.
* :func:`run` — evaluates a scenario under any set of engines and returns a
  :class:`RunSet` of uniform :class:`RunRecord` results.  Simulation
  operating points are embarrassingly parallel; ``parallel=True`` fans them
  out over a :class:`~concurrent.futures.ProcessPoolExecutor`, cutting the
  wall-clock of a figure-scale sweep by roughly the core count while
  producing bit-identical results (each point is reproducible from the
  scenario's seed alone).  ``run()`` is a thin one-scenario campaign:
  multi-scenario plans, streaming progress and the content-addressed
  result store live in :mod:`repro.campaign` / :mod:`repro.store`.
* a **named-scenario registry** — ``scenario("fig3")``,
  ``scenario("table1/544")``, ``scenario("hotspot")`` … give the paper's
  experiments (and a few extensions) stable names; the CLI ``run``
  subcommand accepts either a registered name or a scenario JSON file.

Quick start::

    from repro import api

    result = api.run(api.scenario("fig3", points=8), engines=("model", "sim"),
                     parallel=True)
    for record in result.series("sim"):
        print(record.lambda_g, record.latency, record.metadata["seed"])
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.model.homogeneous import EqualSizeApproximationModel
from repro.model.latency import MultiClusterLatencyModel
from repro.model.parameters import MessageSpec, PAPER_TIMING, TimingParameters
from repro.sim.config import SimulationConfig
from repro.sim.simulator import MultiClusterSimulator
from repro.sim.statistics import SimulationResult
from repro.topology.multicluster import MultiClusterSpec
from repro.topology.zoo.spec import TopologySpec
from repro.utils.serialization import dump_json, from_jsonable, load_json, to_jsonable
from repro.utils.validation import ValidationError
from repro.workloads import (
    ClusterLocalTraffic,
    HotspotTraffic,
    PermutationTraffic,
    TrafficPattern,
    UniformTraffic,
)

__all__ = [
    "AnalyticalEngine",
    "Engine",
    "ENGINE_REGISTRY",
    "PatternSpec",
    "RunRecord",
    "RunSet",
    "Scenario",
    "SimulationEngine",
    "register_scenario",
    "resolve_engines",
    "run",
    "scenario",
    "scenario_names",
    "simulation_budget",
]


# --------------------------------------------------------------------------- #
# Declarative traffic patterns
# --------------------------------------------------------------------------- #
_PATTERN_BUILDERS: Dict[str, Callable[..., TrafficPattern]] = {
    "uniform": UniformTraffic,
    "hotspot": HotspotTraffic,
    "local": ClusterLocalTraffic,
    "permutation": PermutationTraffic,
}


@dataclass(frozen=True)
class PatternSpec:
    """Declarative (JSON-safe) description of a traffic pattern.

    ``kind`` names one of the registered pattern families (``"uniform"``,
    ``"hotspot"``, ``"local"``, ``"permutation"``) and ``params`` carries the
    constructor arguments, e.g.
    ``PatternSpec("hotspot", {"hot_cluster": 0, "fraction": 0.1})``.
    """

    kind: str = "uniform"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _PATTERN_BUILDERS:
            raise ValidationError(
                f"unknown traffic pattern kind {self.kind!r}; "
                f"expected one of {sorted(_PATTERN_BUILDERS)}"
            )

    def build(self) -> TrafficPattern:
        """Instantiate the concrete :class:`TrafficPattern`."""
        return _PATTERN_BUILDERS[self.kind](**self.params)

    def describe(self) -> str:
        if not self.params:
            return self.kind
        args = ", ".join(f"{key}={value}" for key, value in sorted(self.params.items()))
        return f"{self.kind}({args})"


# --------------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Scenario:
    """Everything one experiment needs, as one declarative value.

    Exactly one of ``system`` / ``topology`` must be set.  ``system`` is the
    paper's multi-cluster organisation and works with every engine;
    ``topology`` selects a :mod:`repro.topology.zoo` member (k-ary fat
    trees, fanout trees, tori …), which the simulation engines run through
    the same compiled stack while the analytical model — derived for the
    multi-cluster fat-tree family only — reports itself inapplicable
    (see :func:`repro.experiments.compare.model_applicability`).

    Attributes
    ----------
    system:
        The multi-cluster organisation under study (``None`` for zoo
        scenarios).
    topology:
        A zoo topology spec (``None`` for multi-cluster scenarios).
    message:
        Message geometry (``M`` flits of ``L_m`` bytes).
    timing:
        Channel timing; defaults to the paper's Section 4 values.
    offered_traffic:
        The ``lambda_g`` load grid (strictly positive values).
    pattern:
        Declarative traffic pattern for simulation engines; the analytical
        model always assumes the paper's uniform pattern.
    sim:
        Simulation statistics budget (message counts, seed, time cap).
    variance_approximation:
        Source-queue variance approximation used by the analytical model.
    name:
        Optional label (registry scenarios carry their registered name).
    """

    system: Optional[MultiClusterSpec] = None
    message: MessageSpec = MessageSpec()
    timing: TimingParameters = PAPER_TIMING
    offered_traffic: Tuple[float, ...] = ()
    pattern: PatternSpec = PatternSpec()
    sim: SimulationConfig = SimulationConfig()
    variance_approximation: str = "draper-ghosh"
    name: str = ""
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if (self.system is None) == (self.topology is None):
            raise ValidationError(
                "exactly one of system / topology must be set, got "
                f"system={self.system!r}, topology={self.topology!r}"
            )
        object.__setattr__(
            self, "offered_traffic", tuple(float(value) for value in self.offered_traffic)
        )
        for value in self.offered_traffic:
            if value <= 0:
                raise ValidationError("offered traffic values must be > 0")
        if self.variance_approximation not in ("draper-ghosh", "zero"):
            raise ValidationError(
                "variance_approximation must be 'draper-ghosh' or 'zero', "
                f"got {self.variance_approximation!r}"
            )

    # ------------------------------------------------------------- conveniences
    @staticmethod
    def load_grid(max_traffic: float, points: int) -> Tuple[float, ...]:
        """An evenly spaced grid of ``points`` loads in ``(0, max_traffic]``."""
        if points < 1:
            raise ValidationError(f"points must be >= 1, got {points}")
        if max_traffic <= 0:
            raise ValidationError(f"max_traffic must be > 0, got {max_traffic}")
        return tuple(float(v) for v in np.linspace(0.0, max_traffic, points + 1)[1:])

    def with_traffic(self, offered_traffic: Sequence[float]) -> "Scenario":
        return replace(self, offered_traffic=tuple(float(v) for v in offered_traffic))

    def with_points(self, points: int) -> "Scenario":
        """The same scenario with its load grid resampled to ``points`` values."""
        if not self.offered_traffic:
            raise ValidationError("scenario has no load grid to resample")
        return self.with_traffic(self.load_grid(max(self.offered_traffic), points))

    def with_sim(self, sim: SimulationConfig) -> "Scenario":
        return replace(self, sim=sim)

    def with_seed(self, seed: int | None) -> "Scenario":
        return replace(self, sim=self.sim.with_seed(seed))

    @property
    def network(self) -> Union[MultiClusterSpec, TopologySpec]:
        """Whichever organisation spec is set (system or zoo topology)."""
        if self.system is not None:
            return self.system
        assert self.topology is not None  # __post_init__ invariant
        return self.topology

    @property
    def spec_label(self) -> str:
        network = self.network
        return network.name or f"N={network.total_nodes}"

    def describe(self) -> str:
        label = self.name or self.spec_label
        return (
            f"{label}: {self.network.describe()}; {self.message.describe()}; "
            f"pattern={self.pattern.describe()}; "
            f"{len(self.offered_traffic)} operating points"
        )

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (the inverse of :meth:`from_dict`).

        An unset ``system``/``topology`` is omitted rather than emitted as
        ``null`` — :meth:`from_dict` treats a missing field as its default,
        and multi-cluster scenario dicts (and therefore every store task
        key derived from them) stay byte-identical to releases that predate
        the ``topology`` field.
        """
        data = to_jsonable(self)
        if self.topology is None:
            data.pop("topology", None)
        if self.system is None:
            data.pop("system", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        return from_jsonable(cls, data)

    def to_json(self, path: str | Path) -> Path:
        """Write the scenario to ``path`` as JSON and return the path."""
        return dump_json(self, path)

    @classmethod
    def from_json(cls, path: str | Path) -> "Scenario":
        """Load a scenario previously written with :meth:`to_json`."""
        return cls.from_dict(load_json(path))


# --------------------------------------------------------------------------- #
# Run records
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RunRecord:
    """One engine's result at one operating point, in engine-neutral shape."""

    engine: str
    lambda_g: float
    latency: float
    saturated: bool
    #: provenance and cost: seed, wall-clock seconds, measured messages …
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: the full simulation statistics when the engine was a simulator
    simulation: Optional[SimulationResult] = None


@dataclass(frozen=True)
class RunSet:
    """All records produced by one :func:`run` call."""

    scenario: Scenario
    records: Tuple[RunRecord, ...]

    @property
    def engines(self) -> Tuple[str, ...]:
        """Engine names in first-appearance order."""
        seen: List[str] = []
        for record in self.records:
            if record.engine not in seen:
                seen.append(record.engine)
        return tuple(seen)

    def series(self, engine: str) -> Tuple[RunRecord, ...]:
        """The records of one engine in load-grid order."""
        series = tuple(record for record in self.records if record.engine == engine)
        if not series:
            raise ValidationError(
                f"run set has no records for engine {engine!r}; available: {self.engines}"
            )
        return series

    def curve(self, engine: str) -> np.ndarray:
        """The latency curve of one engine over the load grid."""
        return np.array([record.latency for record in self.series(engine)])

    def record(self, engine: str, lambda_g: float) -> RunRecord:
        for candidate in self.series(engine):
            if math.isclose(candidate.lambda_g, lambda_g, rel_tol=1e-12):
                return candidate
        raise ValidationError(f"no {engine!r} record at lambda_g={lambda_g!r}")

    @property
    def offered_traffic(self) -> np.ndarray:
        return np.array(self.scenario.offered_traffic)

    def total_wall_clock_seconds(self) -> float:
        """Summed engine wall-clock cost over every record."""
        return sum(record.metadata.get("wall_clock_seconds", 0.0) for record in self.records)

    def describe(self) -> str:
        return f"{self.scenario.describe()}; engines={', '.join(self.engines)}"


# --------------------------------------------------------------------------- #
# Engines
# --------------------------------------------------------------------------- #
@runtime_checkable
class Engine(Protocol):
    """The backend protocol: anything that can price one operating point.

    Implementations must be picklable (parallel runs ship them to worker
    processes) and deterministic given the scenario — results may depend on
    the scenario's seed but never on evaluation order, so parallel and
    sequential runs are interchangeable.
    """

    #: registry key / record label
    name: str
    #: expensive engines are the ones worth fanning out across processes
    expensive: bool

    def evaluate(self, scenario: Scenario, lambda_g: float) -> RunRecord:
        """Evaluate one operating point of the scenario."""
        ...


def _require_system(scenario: Scenario) -> MultiClusterSpec:
    """The scenario's multi-cluster system, or a clear error for zoo scenarios.

    The analytical model of the paper is derived for the multi-cluster
    fat-tree family only; :func:`repro.experiments.compare.model_applicability`
    reports this per scenario instead of tripping this error.
    """
    if scenario.system is None:
        raise ValidationError(
            f"the analytical model does not apply to zoo topology "
            f"{scenario.network.name!r}; it is derived for multi-cluster "
            "fat-tree systems only (use a simulation engine instead)"
        )
    return scenario.system


class AnalyticalEngine:
    """The paper's analytical latency model (Eq. 35-36) as an engine.

    Parameters
    ----------
    model_factory:
        Optional override mapping a scenario to a model object exposing
        ``mean_latency(lambda_g)``.  The default builds
        :class:`MultiClusterLatencyModel` from the scenario; the ablations
        pass e.g. :class:`EqualSizeApproximationModel` here.
    variance_approximation:
        Optional override of the scenario's variance approximation (used by
        the variance ablation to run both arms over one scenario).
    name:
        Record label; defaults to ``"model"``.
    """

    expensive = False

    def __init__(
        self,
        *,
        model_factory: Optional[Callable[[Scenario], Any]] = None,
        variance_approximation: Optional[str] = None,
        name: str = "model",
    ) -> None:
        self.name = name
        self.model_factory = model_factory
        self.variance_approximation = variance_approximation
        self._cached_for: Optional[Scenario] = None
        self._model: Any = None

    def _build_model(self, scenario: Scenario) -> Any:
        if self.model_factory is not None:
            return self.model_factory(scenario)
        return MultiClusterLatencyModel(
            _require_system(scenario),
            scenario.message,
            scenario.timing,
            variance_approximation=(
                self.variance_approximation or scenario.variance_approximation
            ),
        )

    def model_for(self, scenario: Scenario) -> Any:
        """The (memoised) model instance used for ``scenario``."""
        if self._cached_for is not scenario:
            self._model = self._build_model(scenario)
            self._cached_for = scenario
        return self._model

    def evaluate(self, scenario: Scenario, lambda_g: float) -> RunRecord:
        model = self.model_for(scenario)
        started = _time.perf_counter()
        latency = float(model.mean_latency(lambda_g))
        elapsed = _time.perf_counter() - started
        return RunRecord(
            engine=self.name,
            lambda_g=float(lambda_g),
            latency=latency,
            saturated=math.isinf(latency),
            metadata={
                "wall_clock_seconds": elapsed,
                "variance_approximation": (
                    self.variance_approximation or scenario.variance_approximation
                ),
            },
        )

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_cached_for"] = None
        state["_model"] = None
        return state


class SimulationEngine:
    """The flit-level wormhole simulator (Section 4) as an engine.

    The simulator runs on the compiled network core: constructing it pulls
    the organisation's dense channel-id space and precompiled route tables
    from module-level caches (:func:`repro.topology.compile.compile_system`,
    :func:`repro.routing.compile.compile_system_routes`), so a sweep
    compiles once and every operating point replays the tables.
    :meth:`prepare` triggers that compilation eagerly; a pool worker calls
    it once per (engine, scenario) pair it caches, so each worker compiles
    the tables once and every point it evaluates replays them.

    Parameters
    ----------
    pattern:
        Optional concrete :class:`TrafficPattern` overriding the scenario's
        declarative :class:`PatternSpec` (for programmatic patterns that have
        no JSON form).  The default vectorized kernel draws only the
        built-in pattern classes; a custom one runs on the generator kernel.
    arrivals_factory:
        Optional arrival-process override forwarded to the simulator (the
        vectorized kernel draws :class:`~repro.workloads.PoissonArrivals`
        and :class:`~repro.workloads.DeterministicArrivals` only).
    name:
        Record label; defaults to ``"sim"``.
    """

    expensive = True

    def __init__(
        self,
        *,
        pattern: Optional[TrafficPattern] = None,
        arrivals_factory: Optional[Callable[[float], Any]] = None,
        name: str = "sim",
    ) -> None:
        self.name = name
        self.pattern = pattern
        self.arrivals_factory = arrivals_factory
        self._cached_for: Optional[Scenario] = None
        self._simulator: Optional[MultiClusterSimulator] = None

    def simulator_for(self, scenario: Scenario) -> MultiClusterSimulator:
        """The (memoised) simulator instance used for ``scenario``."""
        if self._cached_for is not scenario:
            self._simulator = MultiClusterSimulator(
                scenario.network,
                scenario.message,
                scenario.timing,
                config=scenario.sim,
                pattern=self.pattern if self.pattern is not None else scenario.pattern.build(),
                arrivals_factory=self.arrivals_factory,
            )
            self._cached_for = scenario
        return self._simulator

    def prepare(self, scenario: Scenario) -> None:
        """Compile the scenario's network core ahead of evaluation/fan-out.

        Besides the channel-id space and route tables this derives, on the
        vectorized kernel, the run seed's flat block of initial PCG64 stream
        states once (building and loading the native library), so each
        sweep point finds it with one lookup instead of re-seeding — and lays out the route
        tables the kernels read (every route row of a zoo topology), so
        none of it lands inside a timed run.
        """
        self.simulator_for(scenario).prepare()

    def evaluate(self, scenario: Scenario, lambda_g: float) -> RunRecord:
        simulator = self.simulator_for(scenario)
        result = simulator.run(lambda_g)
        return RunRecord(
            engine=self.name,
            lambda_g=float(lambda_g),
            latency=float(result.mean_latency),
            saturated=result.saturated,
            metadata={
                "seed": result.seed,
                "wall_clock_seconds": result.wall_clock_seconds,
                "measured_messages": result.measured_messages,
            },
            simulation=result,
        )

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_cached_for"] = None
        state["_simulator"] = None
        return state


#: Engine constructors by registry name (aliases included).
ENGINE_REGISTRY: Dict[str, Callable[[], Engine]] = {
    "model": AnalyticalEngine,
    "analysis": AnalyticalEngine,
    "sim": SimulationEngine,
    "simulation": SimulationEngine,
}

EngineLike = Union[str, Engine]


def resolve_engines(engines: Iterable[EngineLike]) -> Tuple[Engine, ...]:
    """Map engine names / instances to engine instances, rejecting duplicates."""
    resolved: List[Engine] = []
    names: set = set()
    for entry in engines:
        if isinstance(entry, str):
            if entry not in ENGINE_REGISTRY:
                raise ValidationError(
                    f"unknown engine {entry!r}; registered: {sorted(ENGINE_REGISTRY)}"
                )
            engine = ENGINE_REGISTRY[entry]()
        else:
            engine = entry
        if engine.name in names:
            raise ValidationError(f"duplicate engine name {engine.name!r}")
        names.add(engine.name)
        resolved.append(engine)
    if not resolved:
        raise ValidationError("at least one engine is required")
    return tuple(resolved)


# --------------------------------------------------------------------------- #
# run(): the single entry point
# --------------------------------------------------------------------------- #
def run(
    scenario: Scenario,
    engines: Iterable[EngineLike] = ("model", "sim"),
    *,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    store: Optional[Any] = None,
    retry: Optional[Any] = None,
    pool: Optional[Any] = None,
) -> RunSet:
    """Evaluate ``scenario`` under every engine and collect a :class:`RunSet`.

    This is a thin one-scenario campaign: the call builds a single-entry
    :class:`repro.campaign.Campaign` and blocks on its executor, so the
    multi-scenario path (:mod:`repro.campaign`) and this established entry
    point share one task queue, one pool policy and one result shape.

    Parameters
    ----------
    scenario:
        The experiment description; its ``offered_traffic`` grid must be
        non-empty.
    engines:
        Engine names (looked up in :data:`ENGINE_REGISTRY`) or instances.
    parallel:
        Fan the *expensive* engines' operating points out over a process
        pool.  Simulation points are independent and each run is seeded from
        the scenario alone, so the records are identical to a sequential run
        — only the wall-clock (and the per-record ``wall_clock_seconds``
        measurements) change.
    max_workers:
        Process count for the pool; defaults to the machine's CPU count
        capped by the number of parallel tasks.
    store:
        Optional :class:`repro.store.ResultStore` serving previously
        computed records (bit-identical by the golden-seed discipline) and
        persisting new ones.  ``None`` (the default) computes everything
        fresh, preserving the established ``run()`` behaviour.
    retry:
        Optional :class:`repro.campaign.RetryPolicy` re-queuing tasks whose
        pooled workers crash or hang.  ``None`` (the default) gives every
        task one attempt; a task failure then raises a
        :class:`repro.campaign.CampaignExecutionError`.
    pool:
        Optional shared :class:`repro.campaign.WorkerPool` to run this
        call's pooled tasks on — e.g. a warm pool kept across calls.
        ``None`` (the default) starts a pool for the call's pooled tasks
        and shuts it down before returning.

    Records are ordered engine-by-engine in the order given, each series in
    load-grid order.
    """
    # Imported lazily: repro.campaign builds on this module's Scenario and
    # engine machinery, so a module-level import here would be circular.
    from repro.campaign import Campaign, CampaignEntry, CampaignExecutor

    campaign = Campaign(
        entries=(CampaignEntry(scenario=scenario, engines=tuple(engines), label="run"),),
        name=scenario.name or "run",
    )
    executor = CampaignExecutor(
        campaign,
        parallel=parallel,
        max_workers=max_workers,
        store=store,
        retry=retry,
        pool=pool,
    )
    return executor.collect().runsets[0]


# --------------------------------------------------------------------------- #
# Named-scenario registry
# --------------------------------------------------------------------------- #
def simulation_budget(budget: str = "quick", seed: int | None = 0) -> SimulationConfig:
    """Resolve a budget name (``quick`` / ``default`` / ``paper``) and seed."""
    if budget == "paper":
        return SimulationConfig.paper(seed=seed)
    if budget == "default":
        return SimulationConfig(seed=seed)
    if budget == "quick":
        return SimulationConfig.quick(seed=seed)
    raise ValidationError(
        f"unknown simulation budget {budget!r}; expected 'quick', 'default' or 'paper'"
    )


ScenarioFactory = Callable[[int, SimulationConfig], Scenario]

_SCENARIOS: Dict[str, ScenarioFactory] = {}


def register_scenario(name: str, factory: ScenarioFactory) -> None:
    """Register a named scenario factory ``factory(points, sim) -> Scenario``."""
    if not name:
        raise ValidationError("scenario name must not be empty")
    _SCENARIOS[name] = factory


def scenario_names() -> Tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


def scenario(
    name: str,
    *,
    points: int = 8,
    budget: str = "quick",
    seed: int | None = 0,
    sim: Optional[SimulationConfig] = None,
) -> Scenario:
    """Build a registered scenario by name.

    ``points`` resamples the load grid; ``budget``/``seed`` (or an explicit
    ``sim`` config) select the simulation statistics budget.
    """
    if name not in _SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    config = sim if sim is not None else simulation_budget(budget, seed)
    return _SCENARIOS[name](points, config)


def _table1_series(
    total_nodes: int, points: int, sim: SimulationConfig, *, name: str
) -> Scenario:
    # Imported lazily: experiments.sweep routes through this module, so a
    # module-level import of repro.experiments here would be circular.
    from repro.experiments.configs import FIGURE_TRAFFIC_RANGES, table1_system

    message = MessageSpec(length_flits=32, flit_bytes=256)
    max_traffic = FIGURE_TRAFFIC_RANGES[(total_nodes, message.length_flits)]
    return Scenario(
        system=table1_system(total_nodes),
        message=message,
        offered_traffic=Scenario.load_grid(max_traffic, points),
        sim=sim,
        name=name,
    )


def _register_builtin_scenarios() -> None:
    register_scenario(
        "table1/1120",
        lambda points, sim: _table1_series(1120, points, sim, name="table1/1120"),
    )
    register_scenario(
        "table1/544",
        lambda points, sim: _table1_series(544, points, sim, name="table1/544"),
    )
    # The canonical series of each validation figure (M=32 flits, Lm=256
    # bytes); the remaining series differ only in message geometry and are
    # produced by repro.experiments.figures.
    register_scenario(
        "fig3", lambda points, sim: _table1_series(1120, points, sim, name="fig3")
    )
    register_scenario(
        "fig4", lambda points, sim: _table1_series(544, points, sim, name="fig4")
    )

    def _hotspot(points: int, sim: SimulationConfig) -> Scenario:
        base = _table1_series(544, points, sim, name="hotspot")
        return replace(
            base,
            pattern=PatternSpec("hotspot", {"hot_cluster": 0, "fraction": 0.1}),
        )

    register_scenario("hotspot", _hotspot)

    def _heterogeneous(points: int, sim: SimulationConfig) -> Scenario:
        # A small strongly heterogeneous organisation (the integration-test
        # system): quick enough for laptops, heterogeneous enough to
        # exercise the per-cluster model terms.
        return Scenario(
            system=MultiClusterSpec(
                m=4, cluster_heights=(1, 2, 2, 1), name="heterogeneous"
            ),
            message=MessageSpec(length_flits=32, flit_bytes=256),
            offered_traffic=Scenario.load_grid(1.2e-3, points),
            sim=sim,
            name="heterogeneous",
        )

    register_scenario("heterogeneous", _heterogeneous)

    # One registry scenario per topology-zoo family.  Only the simulation
    # engines apply (the analytical model is fat-tree-specific); the loads
    # stay modest so each family is laptop-quick at the default budget.
    def _zoo(name: str, spec: TopologySpec, max_traffic: float) -> None:
        def factory(points: int, sim: SimulationConfig, spec=spec, name=name) -> Scenario:
            return Scenario(
                topology=spec,
                message=MessageSpec(length_flits=32, flit_bytes=256),
                offered_traffic=Scenario.load_grid(max_traffic, points),
                sim=sim,
                name=name,
            )

        register_scenario(name, factory)

    _zoo("zoo/fattree4", TopologySpec("fattree", {"k": 4}), 1.0e-3)
    _zoo("zoo/tree", TopologySpec("tree", {"depth": 2, "fanout": 4}), 1.0e-3)
    _zoo("zoo/torus", TopologySpec("torus", {"rows": 4, "cols": 4}), 1.0e-3)


_register_builtin_scenarios()


def _equal_size_model(scenario: Scenario) -> EqualSizeApproximationModel:
    # Module level, so the engine pickles onto the worker pool.
    return EqualSizeApproximationModel(
        _require_system(scenario), scenario.message, scenario.timing
    )


# Re-exported for ablation convenience: an analytical engine built on the
# equal-cluster-size approximation instead of the heterogeneity-aware model.
def equal_size_engine(name: str = "model/equal-size") -> AnalyticalEngine:
    """An :class:`AnalyticalEngine` running the equal-size approximation."""
    return AnalyticalEngine(model_factory=_equal_size_model, name=name)
