"""Deterministic random-number stream management.

Simulation experiments must be reproducible and, when several independent
stochastic processes run in one simulation (one Poisson source per node),
their streams must not be correlated.  :class:`RandomStreams` hands out
independent :class:`numpy.random.Generator` instances derived from a single
seed via ``SeedSequence.spawn`` so that

* the same experiment seed always reproduces the same results, and
* adding one more stream never perturbs the existing ones.

Two pools skip re-seeding across runs.  The generator kernel draws from
:class:`~numpy.random.Generator` objects, which a pooled
:class:`RandomStreams` snapshots on first use and restores every later
run.  The vectorized kernel draws in C from flat PCG64 states:
:func:`stream_states` derives every node's initial states once per (seed,
system) into one read-only ``uint64`` block, which each run finds with one
lookup and draws from without writing it.  It makes no
:class:`~numpy.random.SeedSequence`: it lays out each stream's entropy
words and hands them to a seeding function that runs numpy's mixing in C.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable, List, Sequence

import numpy as np

from repro.utils.validation import ValidationError


def _stable_key_hash(part: Hashable) -> int:
    """A process-independent 32-bit hash of one stream-key component.

    Python's built-in ``hash`` is salted per process for strings, which
    would make "the same seed reproduces the same run" hold only within a
    single interpreter; stream keys are therefore hashed over their ``repr``
    instead, so serialized experiment records (scenario + seed) replay bit
    for bit in any process — including process-pool workers.
    """
    return zlib.crc32(repr(part).encode("utf-8"))


def _words(value: int) -> List[int]:
    """``value``'s 32-bit words, least significant first (at least one).

    The words :class:`~numpy.random.SeedSequence` splits an integer of its
    seed into.
    """
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


#: Module-level stream pool: (entropy, key) -> (Generator, initial PCG64
#: state snapshot).  Seeding a generator pays SeedSequence entropy mixing
#: (~7 microseconds); restoring a snapshot into an existing generator is a
#: C-level dict assignment (~1.5 microseconds) — so a pooled
#: :class:`RandomStreams` hands out the *same* generator objects every run,
#: reset to their initial state, and a 1000+-node sweep stops paying stream
#: construction per point.  The pool is only safe while a single simulation
#: run per (seed, key) family is active at a time in the process (true for
#: the simulator: runs are strictly sequential per process, and parallel
#: sweeps use separate worker processes), which is why pooling is opt-in.
_STREAM_POOL: Dict[tuple, tuple] = {}
_STREAM_POOL_LIMIT = 262_144

#: Module-level pool of flat state blocks: (entropy, kinds, cluster sizes)
#: -> read-only (nodes, kinds, 4) uint64 block (see :func:`stream_states`),
#: cleared wholesale once it would hold more than ``_STREAM_POOL_LIMIT``
#: streams.
_STATE_BLOCKS: Dict[tuple, np.ndarray] = {}


def spawn_rng(seed: int | None, index: int = 0) -> np.random.Generator:
    """Create a generator for stream ``index`` derived from ``seed``.

    ``seed=None`` produces OS-entropy seeded streams (non-reproducible); any
    integer seed produces a deterministic family of streams.
    """
    if index < 0:
        raise ValidationError(f"index must be >= 0, got {index}")
    seq = np.random.SeedSequence(seed)
    children = seq.spawn(index + 1)
    return np.random.default_rng(children[index])


class RandomStreams:
    """A named family of independent random generators.

    ``pooled=True`` (used by the simulator's per-run state) additionally
    shares generator *objects* through a module-level pool: the first
    construction of a stream snapshots its initial PCG64 state, and every
    later :class:`RandomStreams` asking for the same (seed, key) gets the
    same generator restored to that snapshot.  The draws are bit-identical
    to a freshly seeded stream; only the seeding cost disappears.  Pooled
    families must not be used concurrently from two live instances with the
    same seed (the simulator never does — runs are sequential per process).

    Example
    -------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.get("arrivals", 3)   # stream for node 3 arrivals
    >>> dests = streams.get("destinations", 3)  # independent stream
    """

    def __init__(self, seed: int | None = None, *, pooled: bool = False) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)
        self._cache: Dict[Hashable, np.random.Generator] = {}
        # OS-entropy streams are non-reproducible, so there is no meaningful
        # initial state to share; pooling is a no-op for seed=None.
        self._pooled = pooled and seed is not None

    @property
    def seed(self) -> int | None:
        return self._seed

    @property
    def pooled(self) -> bool:
        return self._pooled

    @property
    def entropy(self) -> int:
        """The root seed material every stream key is mixed with."""
        return self._root.entropy if self._root.entropy is not None else 0

    def get(self, *key: Hashable) -> np.random.Generator:
        """Return (and memoise) the generator identified by ``key``.

        The key is hashed into the seed material so that the same key always
        maps to the same stream for a given root seed.
        """
        if not key:
            raise ValidationError("at least one key component is required")
        generator = self._cache.get(key)
        if generator is None:
            entropy = self.entropy
            cache_key = (entropy, key)
            if self._pooled:
                pooled = _STREAM_POOL.get(cache_key)
                if pooled is not None:
                    generator, snapshot = pooled
                    generator.bit_generator.state = snapshot
                    self._cache[key] = generator
                    return generator
            sequence = np.random.SeedSequence([entropy, *map(_stable_key_hash, key)])
            generator = self._cache[key] = np.random.default_rng(sequence)
            if self._pooled:
                if len(_STREAM_POOL) >= _STREAM_POOL_LIMIT:
                    _STREAM_POOL.clear()
                _STREAM_POOL[cache_key] = (generator, generator.bit_generator.state)
        return generator

    def fresh(self) -> np.random.Generator:
        """Return a new, unnamed independent stream (used for scratch draws)."""
        child = self._root.spawn(1)[0]
        return np.random.default_rng(child)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed!r}, streams={len(self._cache)})"


def stream_states(
    streams: RandomStreams,
    kinds: Sequence[str],
    cluster_nodes: Sequence[int],
    seed: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Every node's initial PCG64 state for each of ``kinds``, as one block.

    Entry ``[s, k]`` of the read-only ``(nodes, len(kinds), 4)`` uint64
    block is the state ``streams.get(kinds[k], cluster, node)`` starts
    from, node ``s`` being node ``node`` of cluster ``cluster`` in system
    order.  Each stream's entropy row is the words
    ``SeedSequence([entropy, *key])`` assembles — the root entropy's 32-bit
    words, then the stable hash of ``kind``, ``cluster`` and ``node`` — and
    ``seed`` turns the rows into numpy's seeded ``PCG64`` states (the
    simulator passes :func:`repro.sim.native.seed_states`).  Each distinct
    key part is hashed once.  Blocks of seeded families are memoised per
    (seed, kinds, cluster sizes), so later runs find theirs with one
    lookup; ``seed=None`` families are derived afresh and store nothing.
    """
    entropy = streams.entropy
    seeded = streams.seed is not None
    sizes = tuple(int(size) for size in cluster_nodes)
    key = (entropy, tuple(kinds), sizes)
    block = _STATE_BLOCKS.get(key) if seeded else None
    if block is not None:
        return block
    root = _words(entropy)
    clusters = [_stable_key_hash(cluster) for cluster in range(len(sizes))]
    nodes = [_stable_key_hash(node) for node in range(max(sizes))]
    rows = np.empty((sum(sizes), len(kinds), len(root) + 3), dtype=np.uint64)
    rows[..., : len(root)] = root
    rows[..., -3] = [_stable_key_hash(kind) for kind in kinds]
    rows[..., -2] = np.repeat(clusters, sizes)[:, None]
    rows[..., -1] = np.concatenate([nodes[:size] for size in sizes])[:, None]
    block = seed(rows.reshape(-1, rows.shape[-1])).reshape(*rows.shape[:2], 4)
    block.setflags(write=False)
    if seeded:
        pooled = sum(each.shape[0] * each.shape[1] for each in _STATE_BLOCKS.values())
        if pooled + block.shape[0] * block.shape[1] > _STREAM_POOL_LIMIT:
            _STATE_BLOCKS.clear()
        _STATE_BLOCKS[key] = block
    return block


def clear_stream_pool() -> None:
    """Drop all pooled generators, snapshots and state blocks (test isolation hook)."""
    _STREAM_POOL.clear()
    _STATE_BLOCKS.clear()
