"""Tests of events, processes and composite conditions."""

import pytest

from repro.des import AnyOf, ConditionValue, Environment, Event, SimulationError


class TestEventLifecycle:
    def test_new_event_is_untriggered(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self):
        env = Environment()
        event = env.event()
        event.succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_failed_event_with_no_waiter_raises_at_run(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("nobody caught me"))
        with pytest.raises(RuntimeError, match="nobody caught me"):
            env.run()

    def test_defused_failed_event_does_not_raise(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("handled"))
        event.defused()
        env.run()  # must not raise


class TestProcess:
    def test_process_value_is_generator_return_value(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1.0)
            return "result"

        process = env.process(proc(env))
        env.run()
        assert process.value == "result"

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.process(lambda: None)

    def test_process_waits_for_event_and_receives_its_value(self):
        env = Environment()
        event = env.event()
        received = []

        def waiter(env):
            value = yield event
            received.append(value)

        def firer(env):
            yield env.timeout(2.0)
            event.succeed("hello")

        env.process(waiter(env))
        env.process(firer(env))
        env.run()
        assert received == ["hello"]

    def test_exception_in_waited_event_propagates_into_process(self):
        env = Environment()
        event = env.event()
        caught = []

        def waiter(env):
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def firer(env):
            yield env.timeout(1.0)
            event.fail(RuntimeError("bad news"))

        env.process(waiter(env))
        env.process(firer(env))
        env.run()
        assert caught == ["bad news"]


class TestConditions:
    def test_any_of_fires_at_first_event(self):
        env = Environment()
        done_at = []

        def proc(env):
            yield env.timeout(4.0) | env.timeout(2.0)
            done_at.append(env.now)

        env.process(proc(env))
        env.run()
        assert done_at == [2.0]

    def test_or_operator_builds_any_of(self):
        env = Environment()
        condition = env.timeout(1.0) | env.timeout(2.0)
        assert isinstance(condition, AnyOf)

    def test_empty_any_of_succeeds_immediately(self):
        env = Environment()
        condition = AnyOf(env, [])
        assert condition.triggered

    def test_condition_value_maps_events_to_values(self):
        env = Environment()
        t1 = env.timeout(1.0, value="a")
        never = env.event()
        results = []

        def proc(env):
            value = yield t1 | never
            results.append(value)

        env.process(proc(env))
        env.run()
        (value,) = results
        assert isinstance(value, ConditionValue)
        assert value[t1] == "a"
        assert t1 in value and never not in value
        assert len(value) == 1

    def test_condition_value_unknown_key_raises(self):
        env = Environment()
        t1 = env.timeout(1.0)
        other = env.timeout(2.0)
        value = ConditionValue([t1])
        with pytest.raises(KeyError):
            _ = value[other]

    def test_mixing_environments_rejected(self):
        env_a, env_b = Environment(), Environment()
        with pytest.raises(SimulationError):
            env_a.timeout(1.0) | env_b.timeout(1.0)

    def test_failed_member_fails_the_condition(self):
        env = Environment()
        event = env.event()
        caught = []

        def proc(env):
            try:
                yield event | env.timeout(10.0)
            except RuntimeError as exc:
                caught.append(str(exc))

        def firer(env):
            yield env.timeout(1.0)
            event.fail(RuntimeError("member failed"))

        env.process(proc(env))
        env.process(firer(env))
        env.run()
        assert caught == ["member failed"]


def test_timeout_carries_value():
    env = Environment()
    received = []

    def proc(env):
        value = yield env.timeout(1.0, value=123)
        received.append(value)

    env.process(proc(env))
    env.run()
    assert received == [123]


def test_event_repr_never_crashes():
    env = Environment()
    event = Event(env)
    assert "Event" in repr(event)
