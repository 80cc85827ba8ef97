"""The native event core's boundary: checks, errors, build cache and fallback.

The C loop trusts its inputs, so :func:`repro.sim.native.run_core` must
refuse every index it would follow out of bounds *before* the call; the
loop itself bounds-checks its message cursors and reports overruns as an
error code.  The build cache is keyed by the source bytes, compiled at the
first simulation (never at import) and safe under concurrent builds.
"""

import os
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
from repro.topology.multicluster import MultiClusterSpec
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
    """A library whose event loop must not be reached."""

    @property
    def core_run(self):
        raise AssertionError("the C loop was called")


def _run_checked(monkeypatch, state, workload=None, routes=None):
    monkeypatch.setattr(native, "_library", _Untouchable())
    native.run_core(
        state.simulator,
        state.workload if workload is None else workload,
        state._routes if routes is None else routes,
        CONFIG,
        state._elide_grants,
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
