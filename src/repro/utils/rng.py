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
lookup and draws from without writing it.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Hashable, Sequence

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


#: Module-level memo of stream seed material -> SeedSequence.  A simulation
#: run creates thousands of named streams (three per node) and every run of
#: a sweep re-derives the same sequences; SeedSequence objects are immutable
#: (``default_rng`` never mutates them), so sharing them across runs only
#: skips the entropy-mixing setup, never changes a stream.  Bounded by a
#: wholesale clear so replication studies over many seeds cannot grow it
#: without limit.
_SEED_SEQUENCES: Dict[tuple, np.random.SeedSequence] = {}
_SEED_SEQUENCE_CACHE_LIMIT = 262_144


def _seed_sequence(entropy: int, key: tuple, memoise: bool = True) -> np.random.SeedSequence:
    """The SeedSequence of stream ``key`` under root ``entropy`` (memoised)."""
    cache_key = (entropy, key)
    sequence = _SEED_SEQUENCES.get(cache_key)
    if sequence is None:
        sequence = np.random.SeedSequence([entropy, *map(_stable_key_hash, key)])
        if memoise:
            if len(_SEED_SEQUENCES) >= _SEED_SEQUENCE_CACHE_LIMIT:
                _SEED_SEQUENCES.clear()
            _SEED_SEQUENCES[cache_key] = sequence
    return sequence


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
            generator = self._cache[key] = np.random.default_rng(_seed_sequence(entropy, key))
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
    order: ``seed`` turns each stream's ``SeedSequence.generate_state(4,
    np.uint64)`` words into numpy's seeded ``PCG64`` state (the simulator
    passes :func:`repro.sim.native.seed_states`).  Blocks of seeded
    families are memoised per (seed, kinds, cluster sizes), so later runs
    find theirs with one lookup; ``seed=None`` families are derived afresh
    and store nothing, not even their SeedSequences.
    """
    entropy = streams.entropy
    seeded = streams.seed is not None
    sizes = tuple(int(size) for size in cluster_nodes)
    key = (entropy, tuple(kinds), sizes)
    block = _STATE_BLOCKS.get(key) if seeded else None
    if block is not None:
        return block
    words = np.empty((sum(sizes), len(kinds), 4), dtype=np.uint64)
    row = 0
    for cluster, size in enumerate(sizes):
        for node in range(size):
            for column, kind in enumerate(kinds):
                sequence = _seed_sequence(entropy, (kind, cluster, node), seeded)
                words[row, column] = sequence.generate_state(4, np.uint64)
            row += 1
    block = seed(words.reshape(-1, 4)).reshape(words.shape)
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
