"""Unit tests for the Environment: clock, scheduling and run() semantics."""

import pytest

from repro.sim import EmptySchedule, Environment


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_step_on_empty_queue_raises(env):
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_reports_next_event_time(env):
    assert env.peek() == float("inf")
    env.timeout(5)
    assert env.peek() == 5.0


def test_run_until_time_stops_clock_exactly(env):
    def ticker(env):
        while True:
            yield env.timeout(1)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_is_rejected():
    env = Environment(initial_time=100.0)
    with pytest.raises(ValueError):
        env.run(until=50.0)


def test_run_until_event_returns_its_value(env):
    def worker(env):
        yield env.timeout(3)
        return "result"

    process = env.process(worker(env))
    assert env.run(until=process) == "result"
    assert env.now == 3.0


def test_run_until_never_triggered_event_raises(env):
    orphan = env.event()
    env.timeout(1)
    with pytest.raises(RuntimeError):
        env.run(until=orphan)


def test_run_until_already_processed_event(env):
    def worker(env):
        yield env.timeout(1)
        return 7

    process = env.process(worker(env))
    env.run()
    assert env.run(until=process) == 7


def test_run_without_until_drains_queue(env):
    seen = []

    def worker(env):
        yield env.timeout(2)
        seen.append(env.now)

    env.process(worker(env))
    env.run()
    assert seen == [2.0]
    assert env.peek() == float("inf")


def test_events_at_same_time_preserve_insertion_order(env):
    order = []

    def waiter(env, label):
        yield env.timeout(1)
        order.append(label)

    for label in "abcd":
        env.process(waiter(env, label))
    env.run()
    assert order == list("abcd")


def test_schedule_at_rejects_a_time_in_the_past(env):
    env.run(until=2.0)
    with pytest.raises(ValueError):
        env.schedule(env.event(), at=1.5)
    with pytest.raises(ValueError):
        env.timeout_at(1.999)
    assert env.peek() == float("inf")


def test_schedule_at_uses_the_exact_instant(env):
    # ``at`` must not round-trip through a delay: in floats,
    # 0.177 + (0.761 - 0.177) != 0.761.
    assert 0.177 + (0.761 - 0.177) != 0.761
    env.run(until=0.177)
    fired = []
    env.timeout_at(0.761).callbacks.append(lambda event: fired.append(env.now))
    env.run()
    assert fired == [0.761]


def test_equal_time_events_pop_in_eid_order_however_scheduled(env):
    order = []
    env.run(until=0.5)
    # Relative and absolute inserts at the same instant pop in the order
    # they were scheduled, not grouped by how they were scheduled.
    env.timeout_at(1.0).callbacks.append(lambda e: order.append("at-1"))
    env.timeout(0.5).callbacks.append(lambda e: order.append("delay-2"))
    env.timeout_at(1.0).callbacks.append(lambda e: order.append("at-3"))
    env.timeout(0.5).callbacks.append(lambda e: order.append("delay-4"))
    env.run()
    assert order == ["at-1", "delay-2", "at-3", "delay-4"]


def test_active_process_is_none_outside_steps(env):
    def worker(env):
        assert env.active_process is not None
        yield env.timeout(1)

    env.process(worker(env))
    env.run()
    assert env.active_process is None


def test_nested_process_spawning(env):
    results = []

    def child(env, n):
        yield env.timeout(n)
        return n * 10

    def parent(env):
        first = yield env.process(child(env, 1))
        second = yield env.process(child(env, 2))
        results.append(first + second)

    env.process(parent(env))
    env.run()
    assert results == [30]
    assert env.now == 3.0
