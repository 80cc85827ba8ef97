"""Tests of the flat channel state, the peer draw, compiled journeys and the wormhole process."""

import numpy as np
import pytest

from repro.des import Environment
from repro.routing import UpDownRouter, compile_system_routes
from repro.sim.message import Message
from repro.sim.network import FlatChannels
from repro.sim.wormhole import compiled_transfer, draw_peer
from repro.topology import MultiClusterSpec, compile_system
from repro.utils import ValidationError

HETERO = MultiClusterSpec(m=4, cluster_heights=(1, 2, 2, 1))


def _message(length=4):
    return Message(
        index=0,
        source_cluster=0,
        source_node=0,
        dest_cluster=0,
        dest_node=1,
        length_flits=length,
        created_at=0.0,
    )


def _transfer(env, channels, message, slots, header_times, on_delivered=None):
    """Start one transfer with the tail time the simulator precomputes."""
    tail_time = (message.length_flits - 1) * max(header_times[slot] for slot in slots)
    return env.process(
        compiled_transfer(
            env, message, slots, channels, header_times, tail_time, on_delivered
        )
    )


def _hold(env, channels, slot, hold):
    """A process holding ``slot`` for ``hold`` time units once granted."""
    grant = channels.acquire(slot)
    yield grant
    yield env.timeout(hold)
    channels.release(slot, grant)


class TestFlatChannels:
    def test_free_slot_is_granted_at_once(self):
        env = Environment()
        channels = FlatChannels(env, 2)
        grant = channels.acquire(1)
        assert grant.triggered
        assert channels.holder[1] is grant
        assert channels.total_grants == [0, 1]

    def test_waiters_are_granted_in_fifo_order(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        granted = []

        def user(label, hold):
            grant = channels.acquire(0)
            yield grant
            granted.append((label, env.now))
            yield env.timeout(hold)
            channels.release(0, grant)

        for label in "abc":
            env.process(user(label, 2.0))
        env.run()
        assert granted == [("a", 0.0), ("b", 2.0), ("c", 4.0)]
        assert channels.total_grants == [3]

    def test_busy_time_accumulates_on_release(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        env.process(_hold(env, channels, 0, 3.0))
        env.process(_hold(env, channels, 0, 2.0))
        env.run()
        assert channels.busy_time == [5.0]

    def test_unreleased_holder_not_counted_yet(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        channels.acquire(0)
        env.timeout(4.0)
        env.run()
        assert env.now == 4.0
        assert channels.busy_time == [0.0]

    def test_busy_and_queued_counters(self):
        env = Environment()
        channels = FlatChannels(env, 3)
        channels.acquire(0)
        waiter = channels.acquire(0)
        channels.acquire(2)
        assert channels.busy_slots() == 2
        assert list(channels.queues[0]) == [waiter]
        assert channels.queues[1:] == [None, None]

    def test_withdrawing_a_queued_grant_twice_is_a_noop(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        holder = channels.acquire(0)
        waiter = channels.acquire(0)
        channels.release(0, waiter)
        channels.release(0, waiter)
        assert channels.holder == [holder]
        assert not any(channels.queues)
        channels.release(0, holder)
        env.run()
        assert channels.holder == [None]
        assert not waiter.triggered
        assert channels.total_grants == [1]

    def test_withdrawn_waiter_is_skipped(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        holder = channels.acquire(0)
        first = channels.acquire(0)
        withdrawn = channels.acquire(0)
        last = channels.acquire(0)
        channels.release(0, withdrawn)

        def hand_over():
            yield env.timeout(3.0)
            channels.release(0, holder)
            yield env.timeout(1.0)
            channels.release(0, first)

        env.process(hand_over())
        env.run()
        assert channels.holder == [last]
        assert first.triggered
        assert last.triggered
        assert not withdrawn.triggered
        assert channels.granted_at == [4.0]
        assert channels.total_grants == [3]
        assert not any(channels.queues)

    def test_idle_gap_between_holders_is_not_busy_time(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        granted = []

        def user(start, hold):
            yield env.timeout(start)
            grant = channels.acquire(0)
            assert grant.triggered
            yield grant
            granted.append(env.now)
            yield env.timeout(hold)
            channels.release(0, grant)

        env.process(user(0.0, 2.0))
        env.process(user(5.0, 1.0))
        env.run()
        assert granted == [0.0, 5.0]
        assert channels.holder == [None]
        assert channels.granted_at == [5.0]
        assert channels.busy_time == [3.0]

    def test_releasing_with_a_grant_that_holds_nothing_is_a_noop(self):
        env = Environment()
        channels = FlatChannels(env, 2)
        holder = channels.acquire(0)
        waiter = channels.acquire(0)
        other = channels.acquire(1)
        # Neither grant holds or waits for the slot it is released from.
        channels.release(0, other)
        channels.release(1, waiter)
        assert channels.holder == [holder, other]
        assert list(channels.queues[0]) == [waiter]
        env.run()
        assert channels.busy_time == [0.0, 0.0]
        assert not waiter.triggered


class TestJourneyConstruction:
    def test_draw_peer_never_returns_excluded(self):
        rng = np.random.default_rng(0)
        draws = {draw_peer(rng, 8, 3) for _ in range(200)}
        assert 3 not in draws
        assert draws <= set(range(8))

    def test_draw_peer_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            draw_peer(np.random.default_rng(0), 1, 0)

    def test_intra_hops_match_route_length(self):
        routes = compile_system_routes(HETERO)
        icn1 = compile_system(HETERO).system.cluster(1).icn1
        for source in range(icn1.num_nodes):
            for dest in range(icn1.num_nodes):
                if source != dest:
                    journey, _ = routes.intra_route(1, source, dest)
                    assert len(journey) == icn1.distance(source, dest)

    def test_inter_hops_structure(self):
        core = compile_system(HETERO)
        system = core.system
        journey = compile_system_routes(HETERO).external_route(0, 0, 3, 2, 0, 5)
        ascent = UpDownRouter(system.cluster(0).ecn1).ascending_leg(0, 3).num_links
        icn2 = UpDownRouter(system.icn2).route(0, 2).num_links
        descent = UpDownRouter(system.cluster(2).ecn1).descending_leg(0, 5).num_links
        # Ascending leg + concentrator + ICN2 route + dispatcher + descent.
        assert len(journey) == ascent + 1 + icn2 + 1 + descent
        assert journey[ascent] == core.concentrator_slot(0)
        assert journey[ascent + 1 + icn2] == core.dispatcher_slot(2)
        # Each leg stays inside its own network's block of slot ids.
        source_block = range(core.ecn1_offsets[0], core.ecn1_offsets[1])
        icn2_block = range(core.icn2_offset, core.concentrator_base)
        dest_block = range(core.ecn1_offsets[2], core.ecn1_offsets[3])
        assert all(cid in source_block for cid in journey[:ascent])
        assert all(cid in icn2_block for cid in journey[ascent + 1 : ascent + 1 + icn2])
        assert all(cid in dest_block for cid in journey[-descent:])


class TestWormholeTransfer:
    def test_unloaded_transfer_time(self):
        env = Environment()
        channels = FlatChannels(env, 3)
        message = _message(length=4)
        delivered = []
        _transfer(env, channels, message, (0, 1, 2), [1.0, 2.0, 0.5], delivered.append)
        env.run()
        # Header: 1 + 2 + 0.5; body: (4-1) * max(2.0) = 6.
        assert message.delivered_at == pytest.approx(9.5)
        assert delivered == [message]
        assert message.injected_at == message.created_at  # no source queueing

    def test_single_flit_message_has_no_serialisation(self):
        env = Environment()
        channels = FlatChannels(env, 2)
        message = _message(length=1)
        _transfer(env, channels, message, (0, 1), [1.0, 1.0])
        env.run()
        assert message.delivered_at == pytest.approx(2.0)
        # Start, two grants, two header timeouts, the process end: no tail.
        assert env.events_processed == 6

    def test_every_slot_is_free_after_delivery(self):
        env = Environment()
        channels = FlatChannels(env, 3)
        _transfer(env, channels, _message(), (2, 0), [1.0, 1.0, 1.0])
        env.run()
        assert channels.holder == [None, None, None]
        assert channels.busy_slots() == 0
        assert not any(channels.queues)
        assert channels.busy_time == [4.0, 0.0, 5.0]

    def test_blocking_on_a_busy_channel(self):
        env = Environment()
        channels = FlatChannels(env, 1)
        first = _message()
        second = _message()
        _transfer(env, channels, first, (0,), [1.0])
        _transfer(env, channels, second, (0,), [1.0])
        env.run()
        # Second message cannot even inject until the first releases: the
        # first holds the channel for header (1) + serialisation (3) = 4.
        assert first.delivered_at == pytest.approx(4.0)
        assert second.injected_at == pytest.approx(4.0)
        assert second.delivered_at == pytest.approx(8.0)
        assert second.injected_at - second.created_at == pytest.approx(4.0)
        assert channels.busy_time == [8.0]

    def test_blocked_header_keeps_the_channels_it_crossed(self):
        env = Environment()
        channels = FlatChannels(env, 2)
        env.process(_hold(env, channels, 1, 5.0))
        blocked = _message(length=1)
        follower = _message(length=1)
        _transfer(env, channels, blocked, (0, 1), [1.0, 1.0])
        _transfer(env, channels, follower, (0,), [1.0, 1.0])
        env.run()
        # The blocked header waits on slot 1 until 5 while still holding
        # slot 0, so the follower cannot inject until the worm is delivered.
        assert blocked.injected_at == 0.0
        assert blocked.delivered_at == pytest.approx(6.0)
        assert follower.injected_at == pytest.approx(6.0)
        assert follower.delivered_at == pytest.approx(7.0)
        assert follower.injected_at - follower.created_at == pytest.approx(6.0)
        assert channels.busy_time == [7.0, 6.0]

    def test_delivery_is_reported_before_the_release(self):
        env = Environment()
        channels = FlatChannels(env, 3)
        seen = []
        _transfer(
            env,
            channels,
            _message(length=4),
            (0, 2),
            [1.0, 1.0, 1.0],
            lambda message: seen.append((message.delivered_at, channels.busy_slots())),
        )
        env.run()
        # Header 1 + 1, tail (4 - 1) * 1: both slots are still held at 5.
        assert seen == [(5.0, 2)]
        assert channels.busy_slots() == 0

    def test_releases_follow_the_acquisition_order(self):
        env = Environment()
        channels = FlatChannels(env, 2)
        woken = []

        def waiter(slot):
            yield env.timeout(1.5)
            grant = channels.acquire(slot)
            yield grant
            woken.append((slot, env.now))
            channels.release(slot, grant)

        # The journey takes slot 1 at 0 and slot 0 at 1, and frees both at 2.
        _transfer(env, channels, _message(length=1), (1, 0), [1.0, 1.0])
        env.process(waiter(0))
        env.process(waiter(1))
        env.run()
        assert woken == [(1, 2.0), (0, 2.0)]
