"""Tests of the vectorized event core (:mod:`repro.sim.vector`).

The vectorized kernel executes on flat state — one ``heapq`` of
``(time, seq, payload)`` entries, the run's pre-drawn messages, flat-list
channel state — but must replay the generator specification event for
event.  The golden-seed regression pins it to the historical fixture;
these tests pin it against the generator kernel directly, on the paths the
fixture does not reach: lockstep deterministic arrivals, the guard-timeout
stop, the explicit-grant fallback that runs when delay-0 grant elision
cannot be proven safe, the schedules that proof must reject, and random
small topologies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.model.parameters import MessageSpec
from repro.sim.config import SimulationConfig
from repro.sim.simulator import MultiClusterSimulator
from repro.sim.vector import VectorizedRunState
from repro.topology.multicluster import MultiClusterSpec
from repro.topology.zoo import TopologySpec
from repro.workloads.permutation import PermutationTraffic
from repro.workloads.poisson import DeterministicArrivals, PoissonArrivals

SPEC = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="vector-test")
MESSAGE = MessageSpec(length_flits=16, flit_bytes=128)
CONFIG = SimulationConfig(
    measured_messages=400, warmup_messages=40, drain_messages=40, seed=31
)
LAMBDA = 6e-4


def _run(
    kernel,
    seed=31,
    config=CONFIG,
    arrivals_factory=None,
    lambda_g=LAMBDA,
    spec=SPEC,
    message=MESSAGE,
    pattern=None,
):
    simulator = MultiClusterSimulator(
        spec,
        message,
        config=config,
        kernel=kernel,
        arrivals_factory=arrivals_factory,
        pattern=pattern,
    )
    return simulator.run(lambda_g, seed=seed)


def _statistics_tuple(result):
    return (
        result.mean_latency,
        result.std_latency,
        result.mean_queueing_delay,
        result.mean_network_latency,
        result.external_fraction,
        result.measurement_time,
        result.throughput,
        result.saturated,
        tuple(
            (c.cluster, c.count, c.mean_latency, c.std_latency)
            for c in result.clusters
        ),
        tuple(sorted(result.channel_utilisation.items())),
    )


def _assert_kernels_agree(**kwargs):
    generator = _run("generator", **kwargs)
    vectorized = _run("vectorized", **kwargs)
    assert _statistics_tuple(generator) == _statistics_tuple(vectorized)


class TestMatchesGenerator:
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_poisson_run_is_bit_identical(self, seed):
        _assert_kernels_agree(seed=seed)

    def test_deterministic_lockstep_is_bit_identical(self):
        """All sources fire simultaneously: maximal equal-time frontiers."""
        _assert_kernels_agree(arrivals_factory=DeterministicArrivals, lambda_g=2e-3)

    def test_guard_timeout_stop_is_bit_identical(self):
        """A run the guard cuts off: saturated flag and partial statistics."""
        config = SimulationConfig(
            measured_messages=4000,
            warmup_messages=40,
            drain_messages=40,
            seed=31,
            max_time=400.0,
        )
        generator = _run("generator", config=config, lambda_g=2e-3)
        vectorized = _run("vectorized", config=config, lambda_g=2e-3)
        assert generator.saturated and vectorized.saturated
        assert _statistics_tuple(generator) == _statistics_tuple(vectorized)

    def test_elision_fallback_matches_elided_run(self, monkeypatch):
        """The explicit-grant path and the elided path agree bit for bit.

        Grant elision is an optimisation gated on a provable order-safety
        condition; schedules that fail the proof run the explicit path, so
        the two must be interchangeable wherever both are legal.
        """
        elided = _run("vectorized")
        assert VectorizedRunState(
            MultiClusterSimulator(SPEC, MESSAGE, config=CONFIG, kernel="vectorized"),
            LAMBDA,
            CONFIG,
        )._elide_grants, "fixture schedule should qualify for elision"
        monkeypatch.setattr(
            VectorizedRunState, "_grant_elision_safe", lambda self: False
        )
        explicit = _run("vectorized")
        assert _statistics_tuple(elided) == _statistics_tuple(explicit)

    def test_unknown_arrival_process_disables_elision(self):
        class Erlang2(DeterministicArrivals):
            def next_interarrival(self, rng):
                return float(rng.exponential(0.5) + rng.exponential(0.5))

        simulator = MultiClusterSimulator(
            SPEC, MESSAGE, config=CONFIG, kernel="vectorized",
            arrivals_factory=Erlang2,
        )
        state = VectorizedRunState(simulator, LAMBDA, CONFIG)
        assert not state._elide_grants


class TestUnseededPermutation:
    """``PermutationTraffic(seed=None)`` draws its permutation per run."""

    CONFIG = SimulationConfig(
        measured_messages=600, warmup_messages=60, drain_messages=60, seed=3
    )

    def test_kernels_agree(self):
        _assert_kernels_agree(config=self.CONFIG, seed=3, pattern=PermutationTraffic())

    @pytest.mark.parametrize("kernel", ["generator", "vectorized"])
    def test_results_do_not_depend_on_run_order(self, kernel):
        simulator = MultiClusterSimulator(
            SPEC, MESSAGE, config=self.CONFIG, kernel=kernel, pattern=PermutationTraffic()
        )
        alone = _run(kernel, config=self.CONFIG, seed=3, pattern=PermutationTraffic())
        simulator.run(LAMBDA, seed=1)
        after = simulator.run(LAMBDA, seed=3)
        assert _statistics_tuple(after) == _statistics_tuple(alone)
        assert _statistics_tuple(simulator.run(LAMBDA, seed=1)) != _statistics_tuple(alone)


#: Zoo shapes whose two-flit schedules put a tail delta ``1 * h`` on top of
#: the header delta ``h`` — the coincidence grant elision must refuse.
TREE = TopologySpec("tree", {"depth": 3, "fanout": 3})
TORUS = TopologySpec("torus", {"rows": 4, "cols": 4})


class TestGrantElisionSafety:
    @pytest.mark.parametrize("flit_bytes", [64, 128, 256])
    @pytest.mark.parametrize("spec", [TREE, TORUS], ids=["tree", "torus"])
    def test_two_flit_zoo_schedules_are_bit_identical(self, spec, flit_bytes):
        _assert_kernels_agree(
            spec=spec,
            message=MessageSpec(length_flits=2, flit_bytes=flit_bytes),
            arrivals_factory=DeterministicArrivals,
            lambda_g=2e-3,
        )

    def test_tail_delta_equal_to_a_header_delta_disables_elision(self):
        message = MessageSpec(length_flits=2, flit_bytes=128)
        simulator = MultiClusterSimulator(TREE, message, config=CONFIG)
        assert not VectorizedRunState(simulator, 2e-3, CONFIG)._elide_grants

    @pytest.mark.parametrize("name", api.scenario_names())
    def test_every_registered_scenario_elides(self, name):
        # A tiny budget keeps the arrival pre-draw cheap; elision depends
        # only on the message geometry, the timing and the arrival process.
        budget = SimulationConfig(
            measured_messages=20, warmup_messages=0, drain_messages=0, seed=0
        )
        scenario = api.scenario(name, points=2, sim=budget)
        simulator = api.SimulationEngine().simulator_for(scenario)
        state = VectorizedRunState(simulator, scenario.offered_traffic[0], budget)
        assert state._elide_grants


#: Budget of the differential test: small enough for ~60 examples in tier-1.
RANDOM_BUDGET = (150, 15, 15)


@st.composite
def _random_shapes(draw):
    family = draw(st.sampled_from(["multicluster", "tree", "torus"]))
    if family == "multicluster":
        m, clusters, tallest = draw(st.sampled_from([(2, 2, 3), (4, 4, 2)]))
        heights = draw(
            st.lists(
                st.integers(1, tallest), min_size=clusters, max_size=clusters
            )
        )
        return MultiClusterSpec(m=m, cluster_heights=tuple(heights), name="random")
    if family == "tree":
        return TopologySpec(
            "tree",
            {"depth": draw(st.integers(1, 3)), "fanout": draw(st.integers(2, 3))},
        )
    return TopologySpec(
        "torus", {"rows": draw(st.integers(3, 5)), "cols": draw(st.integers(3, 5))}
    )


class TestRandomShapes:
    @given(
        spec=_random_shapes(),
        length_flits=st.sampled_from([1, 2, 8, 32]),
        flit_bytes=st.sampled_from([64, 256]),
        arrivals=st.sampled_from([PoissonArrivals, DeterministicArrivals]),
        seed=st.integers(0, 2**31 - 1),
        lambda_g=st.floats(1e-4, 8e-3),
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_vectorized_equals_generator(
        self, spec, length_flits, flit_bytes, arrivals, seed, lambda_g
    ):
        measured, warmup, drain = RANDOM_BUDGET
        config = SimulationConfig(
            measured_messages=measured,
            warmup_messages=warmup,
            drain_messages=drain,
            seed=seed,
        )
        _assert_kernels_agree(
            spec=spec,
            message=MessageSpec(length_flits=length_flits, flit_bytes=flit_bytes),
            config=config,
            arrivals_factory=arrivals,
            lambda_g=lambda_g,
            seed=seed,
        )
