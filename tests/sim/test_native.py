"""The native event core's boundary: draws, checks, errors, build cache and fallback.

The C draws must equal numpy's ``PCG64``/``Generator`` draw for draw.  The
C loop trusts its inputs, so :func:`repro.sim.native.run_core` must refuse
every index it would follow out of bounds *before* the call; the loop
itself bounds-checks its message cursors and reports overruns as an error
code.  The build cache is keyed by the source bytes and numpy's
``libnpyrandom.a``, compiled at the first simulation (never at import) and
safe under concurrent builds.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.des.exceptions import SimulationError
from repro.model.parameters import MessageSpec
from repro.sim import native
from repro.sim.config import SimulationConfig
from repro.sim.simulator import MultiClusterSimulator
from repro.sim.vector import VectorizedRunState
from repro.topology.multicluster import MultiClusterSpec, MultiClusterSystem
from repro.utils.validation import ValidationError

SPEC = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1), name="native-test")
CONFIG = SimulationConfig(measured_messages=200, warmup_messages=20, drain_messages=20, seed=3)
SRC = str(Path(native.__file__).resolve().parents[2])


def _state():
    simulator = MultiClusterSimulator(
        SPEC, MessageSpec(16, 128), config=CONFIG, kernel="vectorized"
    )
    return VectorizedRunState(simulator, 6e-4, CONFIG)


class _Untouchable:
    """A library none of whose functions may be reached."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was called")


def _run_checked(monkeypatch, state, workload=None, routes=None):
    monkeypatch.setattr(native, "_library", _Untouchable())
    native.run_core(
        state.simulator,
        state.workload if workload is None else workload,
        state._routes if routes is None else routes,
        CONFIG,
        state._elide_grants,
    )


def _random_entropy(seed, count, width=5):
    """``count`` rows of ``width`` random 32-bit entropy words."""
    return np.random.default_rng(seed).integers(0, 2**32, size=(count, width), dtype=np.uint64)


def _random_sequences(seed, count):
    """``count`` SeedSequences over random entropy words."""
    return [np.random.SeedSequence(row.tolist()) for row in _random_entropy(seed, count)]


def _seeded(sequences):
    return native.seed_states([sequence.entropy for sequence in sequences])


def _words(state):
    """numpy's PCG64 state dict as the four words the C code keeps."""
    mask = 2**64 - 1
    value, increment = state["state"]["state"], state["state"]["inc"]
    return [value >> 64, value & mask, increment >> 64, increment & mask]


class TestDrawsEqualNumpy:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8])
    def test_seeding_equals_pcg64(self, width):
        """Entropy shorter than, as long as and longer than the pool."""
        entropy = _random_entropy(width, 300, width)
        entropy[:4] = [0] * width, [2**32 - 1] * width, range(width), [0, *[7] * (width - 1)]
        assert native.seed_states(entropy).tolist() == [
            _words(np.random.PCG64(np.random.SeedSequence(row.tolist())).state) for row in entropy
        ]

    def test_arrival_gaps_equal_exponential_draws(self):
        sequences = _random_sequences(1, 60)
        states = _seeded(sequences)
        start = np.linspace(0.0, 50.0, 60)
        times = native.draw_times(states, np.arange(60), "poisson", 2.5, 40, start)
        for row, sequence in enumerate(sequences):
            generator = np.random.default_rng(sequence)
            expected = np.cumsum(np.concatenate(((start[row],), generator.exponential(2.5, 40))))
            assert times[row].tolist() == expected[1:].tolist()
            # The stream advanced in place, exactly as far as numpy's did.
            assert states[row].tolist() == _words(generator.bit_generator.state)

    def test_interleaved_uniform_and_bounded_draws_cross_the_half_word_buffer(self):
        """Hot-spot destinations interleave ``random()`` with 32-bit bounded
        draws on one stream: a bounded draw leaves half a word buffered,
        ``random()`` takes a whole new word and leaves it, and the next
        bounded draw uses it."""
        sizes = [4, 8, 8, 4]
        sequences = _random_sequences(2, 24)
        block = np.repeat(_seeded(sequences)[:, None], 3, axis=1)
        counts = np.full(24, 30)
        clusters, nodes, _, _ = native.draw_messages(
            sizes, counts, block, "hotspot", fraction=0.5, hot_cluster=1
        )
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        expected = []
        for source, sequence in enumerate(sequences):
            generator = np.random.default_rng(sequence)
            for _ in range(30):
                if generator.random() >= 0.5:
                    draw = int(generator.integers(0, 23))
                    expected.append(draw + (draw >= source))
                elif 4 <= source < 12:
                    draw = int(generator.integers(0, 7))
                    expected.append(4 + draw + (draw >= source - 4))
                else:
                    expected.append(4 + int(generator.integers(0, 8)))
        assert (offsets[clusters] + nodes).tolist() == expected

    def test_deterministic_gaps_are_the_constant_and_leave_the_stream_alone(self):
        states = _seeded(_random_sequences(3, 8))
        before = states.copy()
        start = np.linspace(0.0, 7.0, 8)
        times = native.draw_times(states, np.arange(8), "deterministic", 3.7e-4, 30, start)
        for row in range(8):
            expected = np.cumsum(np.concatenate(((start[row],), np.full(30, 3.7e-4))))
            assert times[row].tolist() == expected[1:].tolist()
        assert states.tolist() == before.tolist()


class TestSourceLayout:
    def test_sources_are_the_systems_nodes_in_order(self):
        system = MultiClusterSystem(SPEC)
        offsets, clusters, nodes = native.source_layout(system.cluster_sizes)
        assert offsets.tolist() == [0, 4, 12, 20, 24]
        assert list(zip(clusters.tolist(), nodes.tolist())) == [
            system.locate(index) for index in range(system.total_nodes)
        ]


class TestDrawInputsAreCheckedBeforeTheCall:
    """Every shape, row, count and bound the C draws follow is refused in
    Python; the library is never reached."""

    @pytest.fixture(autouse=True)
    def _untouchable(self, monkeypatch):
        monkeypatch.setattr(native, "_library", _Untouchable())

    def test_seed_entropy_must_be_rows_of_32_bit_words(self):
        for entropy in (np.zeros(4), np.zeros((2, 0)), np.zeros((2, 4, 1)), [[1, 2**32]]):
            with pytest.raises(ValidationError, match="rows of at least one 32-bit word"):
                native.seed_states(entropy)

    def test_arrival_states_must_be_writable_uint64_rows(self):
        read_only = np.zeros((2, 4), dtype=np.uint64)
        read_only.setflags(write=False)
        for states in (
            np.zeros((2, 4), dtype=np.int64),
            np.zeros((2, 3), dtype=np.uint64),
            np.zeros((2, 8), dtype=np.uint64)[:, ::2],
            read_only,
        ):
            with pytest.raises(ValidationError, match="arrival states"):
                native.draw_times(states, [0, 1], "poisson", 1.0, 4, [0.0, 0.0])

    def test_arrival_rows_must_index_the_states(self):
        states = np.zeros((2, 4), dtype=np.uint64)
        for rows, start in (([2], [0.0]), ([-1], [0.0]), ([0, 1], [0.0]), ([[0]], [[0.0]])):
            with pytest.raises(ValidationError, match="arrival rows"):
                native.draw_times(states, rows, "poisson", 1.0, 4, start)

    def test_unknown_arrivals_and_empty_widths_are_rejected(self):
        states = np.zeros((2, 4), dtype=np.uint64)
        for arrivals, width in (("erlang", 4), ("poisson", 0), ("deterministic", -1)):
            with pytest.raises(ValidationError, match="cannot draw"):
                native.draw_times(states, [0, 1], arrivals, 1.0, width, [0.0, 0.0])

    def test_every_cluster_needs_a_node(self):
        block = np.zeros((4, 3, 4), dtype=np.uint64)
        for sizes in ([], [4, 0], [4, -1], [[2, 2]]):
            with pytest.raises(ValidationError, match="at least one node"):
                native.draw_messages(sizes, [1] * 4, block, "uniform")

    def test_counts_and_stream_states_must_cover_every_source(self):
        block = np.zeros((6, 3, 4), dtype=np.uint64)
        for counts in ([1] * 5, [1] * 7, [1, 1, 1, 1, 1, -1]):
            with pytest.raises(ValidationError, match="message count"):
                native.draw_messages([2, 4], counts, block, "uniform")
        for states in (block[:5], block[:, :2], np.zeros((6, 3, 3), dtype=np.uint64)):
            with pytest.raises(ValidationError, match="three stream states"):
                native.draw_messages([2, 4], [1] * 6, states, "uniform")

    def test_unknown_patterns_are_rejected(self):
        block = np.zeros((6, 3, 4), dtype=np.uint64)
        with pytest.raises(ValidationError, match="unknown traffic pattern"):
            native.draw_messages([2, 4], [1] * 6, block, "tornado")


class TestDrawErrorCodes:
    def test_a_one_node_system_has_no_destination_to_draw(self):
        # The C draw reports the empty range; the wrapper raises.
        block = np.zeros((1, 3, 4), dtype=np.uint64)
        for pattern, fraction in (("uniform", 0.0), ("hotspot", 1.0), ("local", 1.0), ("local", 0.0)):
            with pytest.raises(ValidationError, match="no node to choose from"):
                native.draw_messages([1], [1], block, pattern, fraction)

    def test_a_destination_outside_the_system_is_an_error_code(self, monkeypatch):
        """The C draw stops at a target past the last node, which only a table
        the wrapper refuses could produce, and writes nothing for it."""
        sizes = np.array([2, 2], dtype=np.int64)
        node_offsets, clusters, nodes = native.source_layout(sizes)
        columns = [np.full(4, -2, dtype=np.int64) for _ in range(4)]
        status = native.load().draw_messages(
            2, sizes, node_offsets, 4, clusters, nodes, np.arange(5, dtype=np.int64),
            np.zeros((4, 3, 4), dtype=np.uint64), native.PATTERNS.index("permutation"),
            0.0, 0, -1, np.array([1, 0, 3, 4], dtype=np.int64), *columns,
        )
        assert status == 8
        assert columns[0].tolist() == [0, 0, 1, -2]

        class OutsideTheSystem:
            def draw_messages(self, *args):
                return 8

        monkeypatch.setattr(native, "_library", OutsideTheSystem())
        with pytest.raises(ValidationError, match="a drawn destination lies outside the system"):
            native.draw_messages(
                [2, 2], [1] * 4, np.zeros((4, 3, 4), dtype=np.uint64), "permutation",
                table=[1, 0, 3, 2],
            )


class TestInputsAreCheckedBeforeTheCall:
    def test_route_id_past_the_slot_space_is_rejected(self, monkeypatch):
        state = _state()
        ids = state._routes.ids.copy()
        ids[-1] = state.simulator.core.total_slots
        routes = state._routes._replace(ids=ids)
        with pytest.raises(ValidationError, match="outside the .* channel slots"):
            _run_checked(monkeypatch, state, routes=routes)

    def test_shifted_route_ids_are_checked_per_cluster(self, monkeypatch):
        state = _state()
        shift = state._routes.ecn1_shift.copy()
        shift[-1] = state.simulator.core.total_slots
        with pytest.raises(ValidationError, match="channel slots"):
            _run_checked(monkeypatch, state, routes=state._routes._replace(ecn1_shift=shift))

    def test_destination_outside_its_cluster_is_rejected(self, monkeypatch):
        state = _state()
        nodes = state.workload.dest_nodes.copy()
        nodes[0] = SPEC.cluster_size(int(state.workload.dest_clusters[0]))
        with pytest.raises(ValidationError, match="destination node"):
            _run_checked(monkeypatch, state, workload=state.workload._replace(dest_nodes=nodes))

    def test_peer_outside_its_cluster_is_rejected(self, monkeypatch):
        state = _state()
        workload = state.workload
        external = np.flatnonzero(workload.entry_peers >= 0)
        peers = workload.entry_peers.copy()
        peers[external[0]] = SPEC.cluster_size(int(workload.dest_clusters[external[0]]))
        with pytest.raises(ValidationError, match="peer"):
            _run_checked(monkeypatch, state, workload=workload._replace(entry_peers=peers))

    def test_message_to_itself_is_rejected(self, monkeypatch):
        state = _state()
        workload = state.workload
        source = int(np.searchsorted(workload.offsets, 0, side="right")) - 1
        clusters = workload.dest_clusters.copy()
        nodes = workload.dest_nodes.copy()
        clusters[0] = workload.clusters[source]
        nodes[0] = workload.nodes[source]
        looped = workload._replace(dest_clusters=clusters, dest_nodes=nodes)
        with pytest.raises(ValidationError, match="no route"):
            _run_checked(monkeypatch, state, workload=looped)


class TestLoopErrors:
    def test_cursor_overrun_raises(self):
        """A source asked for more messages than were drawn stops the loop."""
        state = _state()
        workload = state.workload
        sources = len(workload.clusters)
        empty = np.zeros(0, dtype=np.int64)
        starved = workload._replace(
            offsets=np.zeros(sources + 1, dtype=np.int64),
            times=workload.times[workload.offsets[:-1] + np.arange(sources)],
            dest_clusters=empty,
            dest_nodes=empty,
            exit_peers=empty,
            entry_peers=empty,
        )
        with pytest.raises(SimulationError, match="cursor ran past"):
            native.run_core(state.simulator, starved, state._routes, CONFIG, state._elide_grants)


def _in_subprocess(code, cache, path=None, kernel="vectorized"):
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache), REPRO_SIM_KERNEL=kernel)
    if path is not None:
        env["PATH"] = path
    return subprocess.Popen(
        [sys.executable, "-c", code],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestBuildCache:
    def test_concurrent_builds_into_an_empty_cache_both_succeed(self, tmp_path):
        code = "from repro.sim import native; print(native.load()._name)"
        first = _in_subprocess(code, tmp_path)
        second = _in_subprocess(code, tmp_path)
        outputs = [process.communicate(timeout=120) for process in (first, second)]
        assert [process.returncode for process in (first, second)] == [0, 0], outputs
        assert outputs[0][0] == outputs[1][0]
        built = list((tmp_path / "repro-native").iterdir())
        assert [path.suffix for path in built] == [".so"]

    def test_a_library_built_from_other_source_bytes_is_never_loaded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        source = native.SOURCE.read_bytes()
        other = native.build(source + b"\nint core_marker(void) { return 1; }\n")
        assert other.exists()
        assert native.library_path(source) != other
        assert not native.library_path(source).exists()
        monkeypatch.setattr(native, "_library", None)
        library = native.load()
        assert Path(library._name) == native.library_path(source)
        assert not hasattr(library, "core_marker")

    def test_a_library_built_against_other_npyrandom_bytes_is_never_loaded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        source = native.SOURCE.read_bytes()
        original = native.build(source)
        # The same archive plus one more member: other bytes, still linkable.
        archive = tmp_path / "libnpyrandom.a"
        shutil.copy(native.NPYRANDOM, archive)
        marker = tmp_path / "marker.c"
        marker.write_text("int npyrandom_marker(void) { return 1; }\n")
        member = str(tmp_path / "marker.o")
        subprocess.run(["cc", "-fPIC", "-c", "-o", member, str(marker)], check=True)
        subprocess.run(["ar", "r", str(archive), member], check=True, capture_output=True)
        monkeypatch.setattr(native, "NPYRANDOM", archive)
        assert native.library_path(source) != original
        monkeypatch.setattr(native, "_library", None)
        library = native.load()
        assert Path(library._name) == native.library_path(source)
        assert Path(library._name) != original

    def test_a_missing_npyrandom_names_the_file_and_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
        monkeypatch.setattr(native, "NPYRANDOM", missing)
        monkeypatch.setattr(native, "_library", None)
        with pytest.raises(native.NativeCoreUnavailable) as raised:
            native.load()
        assert str(missing) in str(raised.value)
        assert "REPRO_SIM_KERNEL=generator" in str(raised.value)
        assert not (tmp_path / "repro-native").exists()

    def test_importing_the_api_neither_builds_nor_loads(self, tmp_path):
        code = "import repro.api\nfrom repro.sim import native\nassert native._library is None\n"
        process = _in_subprocess(code, tmp_path)
        _, error = process.communicate(timeout=120)
        assert process.returncode == 0, error
        assert not (tmp_path / "repro-native").exists()


class TestWithoutACompiler:
    CODE = (
        "from repro.model.parameters import MessageSpec\n"
        "from repro.sim.config import SimulationConfig\n"
        "from repro.sim.simulator import MultiClusterSimulator\n"
        "from repro.topology.multicluster import MultiClusterSpec\n"
        "spec = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1))\n"
        "config = SimulationConfig(\n"
        "    measured_messages=50, warmup_messages=5, drain_messages=5, seed=1\n"
        ")\n"
        "result = MultiClusterSimulator(spec, MessageSpec(16, 128), config=config).run(6e-4)\n"
        "print(result.measured_messages)\n"
    )

    def test_the_vectorized_kernel_names_the_compiler_and_the_fallback(self, tmp_path):
        # An empty PATH: no compiler can be found, and nothing is cached.
        process = _in_subprocess(self.CODE, tmp_path, path=str(tmp_path))
        _, error = process.communicate(timeout=120)
        assert process.returncode != 0
        assert "NativeCoreUnavailable" in error
        assert "'cc'" in error and "REPRO_SIM_KERNEL=generator" in error

    def test_the_generator_kernel_still_runs(self, tmp_path):
        process = _in_subprocess(self.CODE, tmp_path, path=str(tmp_path), kernel="generator")
        output, error = process.communicate(timeout=120)
        assert process.returncode == 0, error
        assert output.strip() == "50"
        assert not (tmp_path / "repro-native").exists()
