"""Build, cache and call the native event core (``event_core.c``).

The vectorized kernel's pre-draw and event loop are C functions over flat
arrays.  They are compiled on the first simulation that needs them —
never at import — with ``cc -O2 -ffp-contract=off`` (no fast-math flag:
the loop's float arithmetic must round exactly as the Python
specification's does) against numpy's ``bitgen.h``, linked with the
``libnpyrandom.a`` numpy ships (its own distribution code, so every draw
equals :class:`numpy.random.Generator`'s), and cached under
``${XDG_CACHE_HOME:-~/.cache}/repro-native/``.  The cache key hashes the
source bytes, the bytes of that library, the compiler's version banner,
the flags and the platform, so a library built from other source bytes,
against another numpy, by another compiler or for another machine is
never loaded; a build lands under a temporary name and is moved into
place with :func:`os.replace`, so processes building at once never see a
partial file.  Delete the directory to force a rebuild.

The wrappers here are the whole boundary: :func:`seed_states`,
:func:`draw_times`, :func:`draw_messages` and :func:`run_core` check every
index and bound the C code will follow, call it through :mod:`ctypes`
with :func:`numpy.ctypeslib.ndpointer` argument types, and turn its error
codes into exceptions.
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
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np
from numpy.ctypeslib import ndpointer

from repro.des.exceptions import SimulationError
from repro.routing.compile import FlatRoutes
from repro.sim.statistics import RunOutcome
from repro.utils.validation import ValidationError

if TYPE_CHECKING:
    from repro.workloads.batch import PreDrawn

__all__ = [
    "NativeCoreUnavailable",
    "cache_dir",
    "draw_messages",
    "draw_times",
    "load",
    "run_core",
    "seed_states",
    "source_layout",
]

SOURCE = Path(__file__).with_name("event_core.c")
COMPILER = "cc"
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
#: numpy's distribution code as a static library, shipped in its wheels
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"

_library: Optional[ctypes.CDLL] = None

_ERRORS = {
    1: "the native event core could not allocate memory",
    2: "a source's message cursor ran past its pre-drawn messages",
    3: "more measured messages were delivered than the run measures",
    4: "a journey is empty or longer than its row",
    5: "both event heaps drained before the stop event",
    6: "a destination draw has no node to choose from",
    7: "drawing a peer needs at least two nodes",
    8: "a drawn destination lies outside the system",
}

#: the arrival processes and traffic patterns ``event_core.c`` draws
ARRIVALS = ("poisson", "deterministic")
PATTERNS = ("uniform", "hotspot", "local", "permutation")


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


def _npyrandom() -> Path:
    if not NPYRANDOM.is_file():
        raise NativeCoreUnavailable(
            f"the vectorized kernel links numpy's {NPYRANDOM}, which this numpy "
            f"does not ship; run the generator kernel with REPRO_SIM_KERNEL=generator"
        )
    return NPYRANDOM


def library_path(source: bytes) -> Path:
    """The cache entry for ``source`` built by this machine's compiler."""
    banner = subprocess.run(
        [_compiler(), "--version"], capture_output=True, check=True
    ).stdout
    key = hashlib.sha256()
    for part in (
        source,
        _npyrandom().read_bytes(),
        banner,
        " ".join(FLAGS).encode(),
        platform.platform().encode(),
    ):
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
        command = [
            _compiler(), *FLAGS, "-I", np.get_include(), "-o", built, source_file,
            str(_npyrandom()), "-lm",
        ]
        done = subprocess.run(command, capture_output=True, text=True)
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
        i32s, i64s, u64s, f64s = np.int32, np.int64, np.uint64, np.float64
        library.rng_seed.restype = None
        library.rng_seed.argtypes = [i64, *_arrays(u64s, u64s)]
        library.draw_times.restype = None
        library.draw_times.argtypes = [
            i64, *_arrays(i64s, u64s), i64, f64, i64, *_arrays(f64s, f64s)
        ]
        library.draw_messages.restype = ctypes.c_int
        library.draw_messages.argtypes = [
            i64, *_arrays(i64s, i64s), i64, *_arrays(i64s, i64s, i64s, u64s),
            i64, f64, i64, i64, *_arrays(i64s, i64s, i64s, i64s, i64s),
        ]
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


def _raise_for(status: int) -> None:
    if status == 1:
        raise MemoryError(_ERRORS[1])
    if 6 <= status <= 8:
        raise ValidationError(_ERRORS[status])
    if status:
        raise SimulationError(_ERRORS.get(status, f"native event core failed ({status})"))


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """Seeded PCG64 states, one row of four words per stream.

    Row ``i`` of ``entropy`` holds stream ``i``'s entropy as 32-bit words
    (one per element), the array :class:`numpy.random.SeedSequence`
    assembles from its seed: for ``SeedSequence([root, *keys])``, the
    root's words, least significant first, then one word per key below
    ``2**32``.  Row ``i`` of the result is the state numpy's
    ``PCG64(SeedSequence(...))`` starts from, as (state high, state low,
    increment high, increment low).  The whole of numpy's seeding — the
    sequence's entropy mixing, ``generate_state(4, np.uint64)`` and
    ``pcg64_set_seed`` — runs in C, with no ``SeedSequence`` object made.
    """
    entropy = np.ascontiguousarray(entropy, dtype=np.uint64)
    if entropy.ndim != 2 or entropy.shape[1] < 1 or (entropy.size and entropy.max() >> 32):
        raise ValidationError("seed entropy must be rows of at least one 32-bit word")
    # The C side reads the row width from the first word.
    words = np.empty(entropy.size + 1, dtype=np.uint64)
    words[0], words[1:] = entropy.shape[1], entropy.ravel()
    states = np.empty((len(entropy), 4), dtype=np.uint64)
    load().rng_seed(len(entropy), words, states)
    return states


def draw_times(
    states: np.ndarray, rows: np.ndarray, arrivals: str, gap: float, width: int,
    start: np.ndarray,
) -> np.ndarray:
    """``width`` arrival times per source in ``rows``, continuing ``start``.

    Row ``i`` of the result is ``start[i]`` plus the running sum of source
    ``rows[i]``'s next ``width`` gaps — exponential with mean ``gap`` for
    ``"poisson"`` arrivals, ``gap`` itself for ``"deterministic"`` ones.
    ``states`` holds each source's arrivals stream and advances in place.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    start = np.ascontiguousarray(start, dtype=np.float64)
    if (
        states.dtype != np.uint64
        or states.ndim != 2
        or states.shape[1] != 4
        or not states.flags.c_contiguous
        or not states.flags.writeable
    ):
        raise ValidationError("arrival states must be a writable (sources, 4) uint64 array")
    if (
        rows.ndim != 1
        or start.shape != rows.shape
        or (rows.size and not 0 <= rows.min() <= rows.max() < len(states))
    ):
        raise ValidationError("arrival rows do not index the arrival states")
    if arrivals not in ARRIVALS or width < 1:
        raise ValidationError(f"cannot draw {width} {arrivals!r} arrival times")
    times = np.empty((len(rows), width), dtype=np.float64)
    load().draw_times(
        len(rows), rows, states, ARRIVALS.index(arrivals), gap, width, start, times
    )
    return times


def source_layout(cluster_nodes) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(node_offsets, clusters, nodes)`` of the system's nodes in order.

    Cluster ``c`` holds ``cluster_nodes[c]`` nodes starting at global index
    ``node_offsets[c]``; node ``s`` is local node ``nodes[s]`` of cluster
    ``clusters[s]``.  The pre-draw's sources are these nodes.
    """
    cluster_nodes = np.asarray(cluster_nodes, dtype=np.int64)
    node_offsets = np.concatenate(((0,), np.cumsum(cluster_nodes)))
    clusters = np.repeat(np.arange(len(cluster_nodes), dtype=np.int64), cluster_nodes)
    return node_offsets, clusters, np.arange(len(clusters), dtype=np.int64) - node_offsets[clusters]


def draw_messages(
    cluster_nodes: np.ndarray,
    counts: np.ndarray,
    block: np.ndarray,
    pattern: str,
    fraction: float = 0.0,
    hot_cluster: int = 0,
    hot_node: int = -1,
    table: Optional[np.ndarray] = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Destinations and concentrator peers of ``counts[s]`` messages per source.

    The sources are the system's nodes in order, cluster ``c`` holding
    ``cluster_nodes[c]`` of them; ``block[s]`` holds source ``s``'s
    (arrivals, destinations, peers) stream states, which are only read.
    ``pattern`` selects the destination draws — ``fraction`` is the hot
    share of ``"hotspot"`` (with ``hot_cluster`` and ``hot_node``, ``-1``
    for the whole cluster) or the local share of ``"local"``; ``table``
    holds the global partner of every node for ``"permutation"``.
    Returns ``(dest_clusters, dest_nodes, exit_peers, entry_peers)``,
    source after source; intra-cluster messages have ``-1`` peers.
    """
    cluster_nodes = np.ascontiguousarray(cluster_nodes, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    block = np.ascontiguousarray(block, dtype=np.uint64)
    num_clusters = len(cluster_nodes)
    if cluster_nodes.ndim != 1 or num_clusters < 1 or cluster_nodes.min() < 1:
        raise ValidationError("every cluster needs at least one node")
    node_offsets, source_clusters, source_nodes = source_layout(cluster_nodes)
    total = int(node_offsets[-1])
    if counts.shape != (total,) or counts.min() < 0:
        raise ValidationError(f"expected a non-negative message count for each of {total} sources")
    if block.shape != (total, 3, 4):
        raise ValidationError(f"expected three stream states for each of {total} sources")
    if pattern not in PATTERNS:
        raise ValidationError(f"unknown traffic pattern {pattern!r}")
    if pattern == "hotspot" and not (
        0 <= hot_cluster < num_clusters and -1 <= hot_node < cluster_nodes[hot_cluster]
    ):
        raise ValidationError(f"hot cluster {hot_cluster}, node {hot_node} is outside the system")
    if pattern == "permutation":
        table = np.ascontiguousarray(() if table is None else table, dtype=np.int64)
        if table.shape != (total,) or not 0 <= table.min() <= table.max() < total:
            raise ValidationError(f"a permutation table must map each of {total} nodes into them")
    else:
        table = np.zeros(1, dtype=np.int64)
    offsets = np.concatenate(((0,), np.cumsum(counts)))
    messages = int(offsets[-1])
    columns = [np.empty(messages, dtype=np.int64) for _ in range(4)]
    status = load().draw_messages(
        num_clusters,
        cluster_nodes,
        node_offsets,
        total,
        source_clusters,
        source_nodes,
        offsets,
        block,
        PATTERNS.index(pattern),
        fraction,
        hot_cluster,
        hot_node,
        table,
        *columns,
    )
    _raise_for(status)
    return tuple(columns)


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
) -> Tuple[RunOutcome, np.ndarray]:
    """Run one simulation on the native event core.

    Returns the run's record and the number of messages each source
    consumed from its pre-drawn ones.
    """
    library = load()
    core = simulator.core
    cluster_nodes = np.asarray(simulator._cluster_nodes, dtype=np.int64)
    header_times = np.asarray(simulator._header_times, dtype=np.float64)
    if len(header_times) != core.total_slots:
        raise ValidationError("header times do not cover the channel slots")
    workload = workload._make(
        np.ascontiguousarray(column, dtype=np.float64 if field == "times" else np.int64)
        for field, column in zip(workload._fields, workload)
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
    _raise_for(status)
    events, count, touched, done = counts.tolist()
    return RunOutcome(
        clusters[:count],
        external[:count].view(bool),
        created[:count],
        injected[:count],
        delivered[:count],
        busy_time,
        total_grants,
        touch_order[:touched],
        float(clock[0]),
        events,
        bool(done),
    ), consumed
