"""Tests of deterministic random-stream management."""

import numpy as np
import pytest

from repro.utils import RandomStreams, ValidationError, spawn_rng


class TestSpawnRng:
    def test_same_seed_same_stream(self):
        a = spawn_rng(42).random(10)
        b = spawn_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_different_indices_give_different_streams(self):
        a = spawn_rng(42, index=0).random(10)
        b = spawn_rng(42, index=1).random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_give_different_streams(self):
        a = spawn_rng(1).random(10)
        b = spawn_rng(2).random(10)
        assert not np.array_equal(a, b)

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            spawn_rng(42, index=-1)


class TestRandomStreams:
    def test_same_key_returns_same_generator_object(self):
        streams = RandomStreams(seed=7)
        assert streams.get("arrivals", 3) is streams.get("arrivals", 3)

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=7).get("arrivals", 3).random(5)
        b = RandomStreams(seed=7).get("arrivals", 3).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_are_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("arrivals", 0).random(100)
        b = streams.get("destinations", 0).random(100)
        assert not np.array_equal(a, b)

    def test_different_node_indices_are_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.get("arrivals", 0).random(100)
        b = streams.get("arrivals", 1).random(100)
        assert not np.array_equal(a, b)

    def test_empty_key_rejected(self):
        streams = RandomStreams(seed=7)
        with pytest.raises(ValidationError):
            streams.get()

    def test_seed_property_and_repr(self):
        streams = RandomStreams(seed=11)
        assert streams.seed == 11
        streams.get("x")
        assert "seed=11" in repr(streams)

    def test_fresh_returns_generator(self):
        streams = RandomStreams(seed=3)
        rng = streams.fresh()
        assert isinstance(rng, np.random.Generator)

    def test_none_seed_supported(self):
        streams = RandomStreams(seed=None)
        values = streams.get("anything").random(3)
        assert values.shape == (3,)


class TestPooledStreams:
    """The stream pool: shared generator objects reset from state snapshots."""

    def test_pooled_draws_are_bit_identical_to_unpooled(self):
        from repro.utils.rng import clear_stream_pool

        clear_stream_pool()
        reference = RandomStreams(seed=7).get("arrivals", 3).random(16)
        pooled_cold = RandomStreams(seed=7, pooled=True).get("arrivals", 3).random(16)
        pooled_warm = RandomStreams(seed=7, pooled=True).get("arrivals", 3).random(16)
        assert np.array_equal(reference, pooled_cold)
        assert np.array_equal(reference, pooled_warm)

    def test_pooled_instances_share_generator_objects(self):
        from repro.utils.rng import clear_stream_pool

        clear_stream_pool()
        first = RandomStreams(seed=9, pooled=True).get("x", 0)
        second = RandomStreams(seed=9, pooled=True).get("x", 0)
        assert first is second

    def test_pool_reset_restores_the_initial_state_every_run(self):
        from repro.utils.rng import clear_stream_pool

        clear_stream_pool()
        run1 = RandomStreams(seed=5, pooled=True).get("arrivals", 0)
        draws1 = run1.exponential(2.0, 8)
        run2 = RandomStreams(seed=5, pooled=True).get("arrivals", 0)
        draws2 = run2.exponential(2.0, 8)
        assert np.array_equal(draws1, draws2)

    def test_unpooled_instances_never_share_objects(self):
        a = RandomStreams(seed=9).get("x", 0)
        b = RandomStreams(seed=9).get("x", 0)
        assert a is not b

    def test_none_seed_disables_pooling(self):
        streams = RandomStreams(seed=None, pooled=True)
        assert not streams.pooled
        values = streams.get("anything").random(3)
        assert values.shape == (3,)

    def test_different_seeds_have_separate_pool_entries(self):
        from repro.utils.rng import clear_stream_pool

        clear_stream_pool()
        a = RandomStreams(seed=1, pooled=True).get("x").random(8)
        b = RandomStreams(seed=2, pooled=True).get("x").random(8)
        assert not np.array_equal(a, b)


class TestStreamStates:
    """The flat block of initial PCG64 states the vectorized kernel draws from."""

    KINDS = ("arrivals", "destinations", "peers")

    @staticmethod
    def _fake(entropy):
        """A stand-in seeder: each stream's last four entropy words."""
        return entropy[:, -4:].copy()

    @pytest.mark.parametrize(
        "seed",
        [13, 0, 1, 12345, 2**31 - 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 + 5, 2**100 + 3,
         2**128 - 1, None],
    )
    def test_block_holds_every_streams_initial_pcg64_state(self, seed):
        from repro.sim.native import seed_states
        from repro.utils.rng import clear_stream_pool, stream_states

        clear_stream_pool()
        streams = RandomStreams(seed=seed)
        block = stream_states(streams, self.KINDS, (2, 3), seed_states)
        assert block.shape == (5, 3, 4) and not block.flags.writeable
        nodes = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]
        mask = 2**64 - 1
        for row, (cluster, node) in enumerate(nodes):
            for column, kind in enumerate(self.KINDS):
                # Same instance: a seed=None family's entropy is drawn once.
                state = streams.get(kind, cluster, node).bit_generator.state
                value, increment = state["state"]["state"], state["state"]["inc"]
                assert block[row, column].tolist() == [
                    value >> 64, value & mask, increment >> 64, increment & mask
                ]

    def test_seeded_blocks_are_pooled_per_seed_and_shape(self):
        from repro.utils.rng import clear_stream_pool, stream_states

        clear_stream_pool()
        first = stream_states(RandomStreams(seed=3), self.KINDS, (2, 2), self._fake)
        assert stream_states(RandomStreams(seed=3), self.KINDS, (2, 2), self._fake) is first
        other_seed = stream_states(RandomStreams(seed=4), self.KINDS, (2, 2), self._fake)
        other_shape = stream_states(RandomStreams(seed=3), self.KINDS, (4,), self._fake)
        assert not np.array_equal(first, other_seed)
        assert not np.array_equal(first, other_shape)
        clear_stream_pool()
        assert stream_states(RandomStreams(seed=3), self.KINDS, (2, 2), self._fake) is not first

    def test_unseeded_blocks_are_never_stored(self):
        from repro.utils import rng

        rng.clear_stream_pool()
        streams = RandomStreams(seed=None)
        block = rng.stream_states(streams, self.KINDS, (2, 2), self._fake)
        assert block.shape == (4, 3, 4)
        assert not rng._STATE_BLOCKS

    def test_pool_is_bounded_by_streams(self, monkeypatch):
        from repro.utils import rng

        rng.clear_stream_pool()
        monkeypatch.setattr(rng, "_STREAM_POOL_LIMIT", 20)
        rng.stream_states(RandomStreams(seed=1), self.KINDS, (2, 2), self._fake)
        rng.stream_states(RandomStreams(seed=2), self.KINDS, (2, 2), self._fake)
        assert len(rng._STATE_BLOCKS) == 1
