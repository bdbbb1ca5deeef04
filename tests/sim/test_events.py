"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.sim import AllOf, Environment, Event, Timeout


def test_event_starts_pending(env):
    event = env.event()
    assert not event.triggered
    assert not event.processed
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok


def test_succeed_sets_value_and_ok(env):
    event = env.event()
    event.succeed(42)
    assert event.triggered
    assert event.ok
    assert event.value == 42


def test_double_trigger_is_an_error(env):
    event = env.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()
    with pytest.raises(RuntimeError):
        event.fail(ValueError("boom"))


def test_fail_requires_an_exception(env):
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_raises_in_waiting_process(env):
    event = env.event()
    seen = []

    def waiter(env, event):
        try:
            yield event
        except ValueError as exc:
            seen.append(str(exc))

    env.process(waiter(env, event))
    event.fail(ValueError("boom"))
    env.run()
    assert seen == ["boom"]


def test_unhandled_failure_propagates_to_run(env):
    event = env.event()
    event.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_timeout_value_and_delay(env):
    results = []

    def waiter(env):
        value = yield env.timeout(2.5, value="done")
        results.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert results == [(2.5, "done")]


def test_timeout_negative_delay_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeouts_fire_in_order(env):
    order = []

    def waiter(env, delay, label):
        yield env.timeout(delay)
        order.append(label)

    env.process(waiter(env, 3, "c"))
    env.process(waiter(env, 1, "a"))
    env.process(waiter(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_every_event(env):
    done = []

    def waiter(env):
        t1 = env.timeout(1, value="one")
        t2 = env.timeout(3, value="three")
        values = yield env.all_of([t1, t2])
        done.append((env.now, sorted(values.values())))

    env.process(waiter(env))
    env.run()
    assert done == [(3.0, ["one", "three"])]


def test_empty_condition_triggers_immediately(env):
    condition = env.all_of([])
    assert condition.triggered
    assert condition.value == {}


def test_condition_rejects_foreign_events(env):
    other = Environment()
    with pytest.raises(ValueError):
        env.all_of([other.timeout(1)])


def test_condition_with_already_processed_event(env):
    timeout = env.timeout(1, value="early")
    env.run()
    condition = env.all_of([timeout])
    assert condition.triggered
    assert condition.value == {timeout: "early"}


def test_condition_propagates_failure(env):
    failing = env.event()
    ok = env.timeout(5)
    caught = []

    def waiter(env):
        try:
            yield env.all_of([failing, ok])
        except KeyError as exc:
            caught.append(exc)

    env.process(waiter(env))
    failing.fail(KeyError("broken"))
    env.run()
    assert len(caught) == 1
