"""Build, cache and call the native event core (``event_core.c``).

The vectorized kernel's event loop is a C function over flat arrays.  It is
compiled on the first simulation that needs it — never at import — with
``cc -O2 -ffp-contract=off`` (no fast-math flag: the loop's float
arithmetic must round exactly as the Python specification's does) and
cached under ``${XDG_CACHE_HOME:-~/.cache}/repro-native/``.  The cache key
hashes the source bytes, the compiler's version banner, the flags and the
platform, so a library built from other source bytes, by another compiler
or for another machine is never loaded; a build lands under a temporary
name and is moved into place with :func:`os.replace`, so processes
building at once never see a partial file.  Delete the directory to force
a rebuild.

:func:`run_core` is the whole boundary: it checks every index the loop
will follow, calls ``core_run`` through :mod:`ctypes` with
:func:`numpy.ctypeslib.ndpointer` argument types, and turns the loop's
error codes into exceptions.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.des.exceptions import SimulationError
from repro.routing.compile import FlatRoutes
from repro.utils.validation import ValidationError
from repro.workloads.batch import PreDrawn

__all__ = ["CoreOutcome", "NativeCoreUnavailable", "cache_dir", "load", "run_core"]

SOURCE = Path(__file__).with_name("event_core.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_library: Optional[ctypes.CDLL] = None

_ERRORS = {
    1: "the native event core could not allocate memory",
    2: "a source's message cursor ran past its pre-drawn messages",
    3: "more measured messages were delivered than the run measures",
    4: "a journey is empty or longer than its row",
    5: "the event heap drained before the stop event",
}


class NativeCoreUnavailable(SimulationError):
    """The native event core cannot be built on this machine."""


def cache_dir() -> Path:
    """Where built libraries live: ``${XDG_CACHE_HOME:-~/.cache}/repro-native``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-native"


def _compiler() -> str:
    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise NativeCoreUnavailable(
            f"the vectorized kernel compiles its event core with a C compiler, "
            f"but {COMPILER!r} was not found on PATH; install one, or run the "
            f"generator kernel with REPRO_SIM_KERNEL=generator"
        )
    return compiler


def library_path(source: bytes) -> Path:
    """The cache entry for ``source`` built by this machine's compiler."""
    banner = subprocess.run(
        [_compiler(), "--version"], capture_output=True, check=True
    ).stdout
    key = hashlib.sha256()
    for part in (source, banner, " ".join(FLAGS).encode(), platform.platform().encode()):
        key.update(hashlib.sha256(part).digest())
    return cache_dir() / f"event_core-{key.hexdigest()[:32]}.so"


def build(source: bytes) -> Path:
    """Compile ``source`` into the cache unless it is already there."""
    path = library_path(source)
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".build-", dir=path.parent)
    try:
        source_file = os.path.join(staging, "event_core.c")
        with open(source_file, "wb") as handle:
            handle.write(source)
        built = os.path.join(staging, path.name)
        done = subprocess.run(
            [_compiler(), *FLAGS, "-o", built, source_file], capture_output=True, text=True
        )
        if done.returncode != 0:
            raise NativeCoreUnavailable(
                f"{COMPILER} failed to build the event core:\n{done.stderr}"
                "\nrun the generator kernel with REPRO_SIM_KERNEL=generator instead"
            )
        os.replace(built, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return path


def _arrays(*specs):
    return [ndpointer(dtype, flags="C_CONTIGUOUS") for dtype in specs]


def load() -> ctypes.CDLL:
    """The event core, built and loaded once per process."""
    global _library
    if _library is None:
        library = ctypes.CDLL(str(build(SOURCE.read_bytes())))
        i64, f64 = ctypes.c_int64, ctypes.c_double
        i32s, i64s, f64s = np.int32, np.int64, np.float64
        library.core_run.restype = ctypes.c_int
        library.core_run.argtypes = [
            # system
            i64, *_arrays(i64s), i64, *_arrays(f64s), i64, i64,
            # routes
            *_arrays(i32s, i32s, np.uint8, i64s, i64s, i64s, i64s, i64s), i64, i64, i64,
            # messages
            i64, *_arrays(i64s, i64s, i64s, f64s, i64s, i64s, i64s, i64s),
            # run
            i64, i64, i64, f64, i64, f64, f64, i64,
            # outputs
            *_arrays(i64s, f64s, i64s, i32s, i32s, np.uint8, f64s, f64s, f64s, f64s, i64s),
        ]
        _library = library
    return _library


class CoreOutcome(NamedTuple):
    """What one run of the event core returns, all flat."""

    #: measured deliveries in delivery order
    clusters: np.ndarray
    external: np.ndarray
    created: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    #: per-slot busy time and grant counts
    busy_time: np.ndarray
    total_grants: np.ndarray
    #: slots in the order journeys first touched them
    touch_order: np.ndarray
    #: messages each source consumed from its pre-drawn ones
    consumed: np.ndarray
    now: float
    events: int
    done: bool


def _check_routes(routes: FlatRoutes, core, cluster_nodes: np.ndarray) -> None:
    """Every route id the loop can copy lands inside the slot space."""
    offsets, ids = routes.offsets, routes.ids
    if (
        offsets[0] != 0
        or offsets[-1] != len(ids)
        or np.any(offsets[1:] < offsets[:-1])
        or len(routes.has_switch) != len(offsets) - 1
    ):
        raise ValidationError("route offsets do not describe the route ids")
    num_clusters = len(cluster_nodes)
    per_cluster = (routes.intra, routes.ascend, routes.descend, routes.icn1_shift)
    if any(len(column) != num_clusters for column in (*per_cluster, routes.ecn1_shift)):
        raise ValidationError(f"route tables do not cover the {num_clusters} clusters")
    pairs = (cluster_nodes * cluster_nodes).tolist()
    # (first route, route count, id shift) of every table a journey reads
    uses = [
        *zip(routes.intra.tolist(), pairs, routes.icn1_shift.tolist()),
        *zip(routes.ascend.tolist(), pairs, routes.ecn1_shift.tolist()),
        *zip(routes.descend.tolist(), pairs, routes.ecn1_shift.tolist()),
    ]
    if num_clusters > 1:
        uses.append((routes.icn2, num_clusters * num_clusters, routes.icn2_shift))
    extremes = {}  # same-shape clusters share their tables
    for first, count, shift in uses:
        if (first, count) not in extremes:
            if first < 0 or first + count > len(offsets) - 1:
                raise ValidationError("a route table lies outside the route offsets")
            block = ids[offsets[first] : offsets[first + count]]
            extremes[first, count] = (int(block.min()), int(block.max())) if block.size else None
        if extremes[first, count] is not None:
            low, high = extremes[first, count]
            for slot in (low + shift, high + shift):
                if not 0 <= slot < core.total_slots:
                    raise ValidationError(
                        f"route id {slot} is outside the {core.total_slots} channel slots"
                    )


def _check_messages(
    workload: PreDrawn, routes: FlatRoutes, cluster_nodes: np.ndarray
) -> None:
    """Every drawn destination and peer lies inside its cluster."""
    offsets = workload.offsets
    num_sources = len(workload.clusters)
    messages = len(workload.dest_clusters)
    if (
        len(offsets) != num_sources + 1
        or offsets[0] != 0
        or offsets[-1] != messages
        or np.any(offsets[1:] < offsets[:-1])
        or len(workload.times) != messages + num_sources
        or any(len(column) != messages for column in workload[4:])
    ):
        raise ValidationError("pre-drawn message arrays do not match their offsets")
    num_clusters = len(cluster_nodes)
    clusters, nodes = workload.clusters, workload.nodes
    if np.any((clusters < 0) | (clusters >= num_clusters)) or np.any(
        (nodes < 0) | (nodes >= cluster_nodes[clusters])
    ):
        raise ValidationError("a source lies outside its cluster")
    dest_clusters = workload.dest_clusters
    if np.any((dest_clusters < 0) | (dest_clusters >= num_clusters)):
        raise ValidationError("a destination cluster is outside the system")
    dest_nodes = workload.dest_nodes
    if np.any((dest_nodes < 0) | (dest_nodes >= cluster_nodes[dest_clusters])):
        raise ValidationError("a destination node is outside its cluster")
    source_clusters = np.repeat(clusters, np.diff(offsets))
    source_nodes = np.repeat(nodes, np.diff(offsets))
    external = dest_clusters != source_clusters
    exits = workload.exit_peers[external]
    entries = workload.entry_peers[external]
    if np.any((exits < 0) | (exits >= cluster_nodes[source_clusters[external]])) or np.any(
        (entries < 0) | (entries >= cluster_nodes[dest_clusters[external]])
    ):
        raise ValidationError("a concentrator peer is outside its cluster")
    # An intra-cluster journey is its route alone, so it must have one.
    intra = ~external
    local = source_clusters[intra]
    pairs = routes.intra[local] + source_nodes[intra] * cluster_nodes[local] + dest_nodes[intra]
    if np.any(routes.offsets[pairs + 1] == routes.offsets[pairs]):
        raise ValidationError("an intra-cluster message has no route (destination is its source?)")


def run_core(
    simulator, workload: PreDrawn, routes: FlatRoutes, config, elide: bool
) -> CoreOutcome:
    """Run one simulation on the native event core."""
    library = load()
    core = simulator.core
    cluster_nodes = np.asarray(simulator._cluster_nodes, dtype=np.int64)
    header_times = np.asarray(simulator._header_times, dtype=np.float64)
    if len(header_times) != core.total_slots:
        raise ValidationError("header times do not cover the channel slots")
    workload = PreDrawn(
        *(
            np.ascontiguousarray(column, dtype=np.float64 if field == "times" else np.int64)
            for field, column in zip(PreDrawn._fields, workload)
        )
    )
    _check_routes(routes, core, cluster_nodes)
    _check_messages(workload, routes, cluster_nodes)
    lengths = np.diff(routes.offsets)
    longest = int(lengths.max()) if lengths.size else 0
    # An external journey is three routes and two relay slots.
    stride = 3 * longest + 2
    slots = core.total_slots
    sources = len(workload.clusters)
    measured = config.measured_messages
    consumed = np.zeros(sources, dtype=np.int64)
    busy_time = np.zeros(slots, dtype=np.float64)
    total_grants = np.zeros(slots, dtype=np.int64)
    touch_order = np.zeros(slots, dtype=np.int32)
    clusters = np.zeros(measured, dtype=np.int32)
    external = np.zeros(measured, dtype=np.uint8)
    created = np.zeros(measured, dtype=np.float64)
    injected = np.zeros(measured, dtype=np.float64)
    delivered = np.zeros(measured, dtype=np.float64)
    clock = np.zeros(1, dtype=np.float64)
    counts = np.zeros(4, dtype=np.int64)
    status = library.core_run(
        len(cluster_nodes),
        cluster_nodes,
        slots,
        header_times,
        core.concentrator_base,
        core.dispatcher_base,
        routes.offsets,
        routes.ids,
        routes.has_switch,
        routes.intra,
        routes.ascend,
        routes.descend,
        routes.icn1_shift,
        routes.ecn1_shift,
        routes.icn2,
        routes.icn2_shift,
        stride,
        sources,
        workload.clusters,
        workload.nodes,
        workload.offsets,
        workload.times,
        workload.dest_clusters,
        workload.dest_nodes,
        workload.exit_peers,
        workload.entry_peers,
        config.total_messages,
        config.warmup_messages,
        measured,
        config.max_time,
        simulator.message.length_flits - 1,
        simulator._t_cn,
        simulator._max_header,
        int(elide),
        consumed,
        busy_time,
        total_grants,
        touch_order,
        clusters,
        external,
        created,
        injected,
        delivered,
        clock,
        counts,
    )
    if status == 1:
        raise MemoryError(_ERRORS[1])
    if status:
        raise SimulationError(_ERRORS.get(status, f"native event core failed ({status})"))
    events, count, touched, done = counts.tolist()
    return CoreOutcome(
        clusters[:count],
        external[:count].view(bool),
        created[:count],
        injected[:count],
        delivered[:count],
        busy_time,
        total_grants,
        touch_order[:touched],
        consumed,
        float(clock[0]),
        events,
        bool(done),
    )
