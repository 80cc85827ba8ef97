"""Tests of the DES Environment: clock, scheduling, run loop."""

import pytest

from repro.des import Environment, SimulationError


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=10.5)
    assert env.now == 10.5


def test_timeout_advances_clock():
    env = Environment()
    env.process(_wait(env, 3.0))
    env.run()
    assert env.now == 3.0


def test_run_until_time_stops_at_that_time():
    env = Environment()
    env.process(_tick_forever(env, period=1.0))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_time_in_the_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_event_returns_event_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "done"

    process = env.process(proc(env))
    assert env.run(until=process) == "done"
    assert env.now == 2.0


def test_run_with_no_until_exhausts_queue():
    env = Environment()
    processes = [env.process(_wait(env, 1.0)), env.process(_wait(env, 4.0))]
    env.run()
    assert env.now == 4.0
    assert all(process.processed for process in processes)


def test_run_until_beyond_queue_exhaustion_advances_clock():
    env = Environment()
    env.process(_wait(env, 1.0))
    env.run(until=10.0)
    assert env.now == 10.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_events_at_same_time_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1.0)
        order.append(label)

    for label in "abc":
        env.process(proc(env, label))
    env.run()
    assert order == ["a", "b", "c"]


def test_processes_interleave_by_time():
    env = Environment()
    order = []

    def proc(env, label, delay):
        yield env.timeout(delay)
        order.append((label, env.now))

    env.process(proc(env, "slow", 5.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == [("fast", 1.0), ("slow", 5.0)]


def test_unhandled_process_failure_propagates_out_of_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad(env))
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_nested_process_waiting():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 99

    def parent(env):
        value = yield env.process(child(env))
        return value + 1

    process = env.process(parent(env))
    assert env.run(until=process) == 100


class TestRunUntilBoundary:
    """Regression: ``run(until=t)`` stops *at* t via its scheduled stop event.

    Equal-time ordering at the boundary is pinned: URGENT events enqueued at
    the stop time *before* ``run`` still fire, NORMAL ones (and URGENT ones
    scheduled after ``run`` began) stay pending.
    """

    def test_normal_event_at_stop_time_is_left_pending(self):
        env = Environment()
        timeout = env.timeout(5.0)
        env.run(until=5.0)
        assert env.now == 5.0
        assert not timeout.processed
        env.run()
        assert timeout.processed and env.now == 5.0

    def test_event_beyond_until_is_never_processed(self):
        env = Environment()
        fired = []

        def proc(env):
            while True:
                yield env.timeout(2.0)
                fired.append(env.now)

        env.process(proc(env))
        env.run(until=5.0)
        assert env.now == 5.0
        assert fired == [2.0, 4.0]

    def test_urgent_tie_scheduled_before_run_fires_first(self):
        env = Environment()
        fired = []
        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(lambda e: fired.append(env.now))
        env.schedule(event, priority=env.URGENT, delay=5.0)
        env.run(until=5.0)
        assert env.now == 5.0
        assert fired == [5.0]

    def test_urgent_scheduled_during_boundary_stays_pending(self):
        env = Environment()
        fired = []

        def chain(first_event):
            fired.append("first")
            follow = env.event()
            follow._ok = True
            follow._value = None
            follow.callbacks.append(lambda e: fired.append("second"))
            # Scheduled at the stop time but after run() began: the stop
            # event's earlier eid wins the URGENT tie.
            env.schedule(follow, priority=env.URGENT)

        event = env.event()
        event._ok = True
        event._value = None
        event.callbacks.append(chain)
        env.schedule(event, priority=env.URGENT, delay=5.0)
        env.run(until=5.0)
        assert env.now == 5.0
        assert fired == ["first"]
        # Resuming past the boundary processes the leftover urgent event.
        env.run()
        assert fired == ["first", "second"]

    def test_resume_after_boundary_continues(self):
        env = Environment()
        ticks = []

        def proc(env):
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(proc(env))
        env.run(until=3.0)
        assert ticks == [1.0, 2.0]
        env.run(until=5.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0]


def _wait(env, delay):
    yield env.timeout(delay)


def _tick_forever(env, period):
    while True:
        yield env.timeout(period)
