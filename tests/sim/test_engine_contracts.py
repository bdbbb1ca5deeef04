"""Regression pins for the engine's scheduling contracts.

Two contracts must never regress silently:

* **Negative delays are a ``ValueError``**, everywhere — ``schedule()``,
  ``timeout()``, and inside process code (including interrupt handlers).
  The clock may never run backwards, and silently clamping a negative
  delay would hide the workload bug that produced it.
* **``run(until=event)``** returns the event's value once the event is
  *processed*, returns immediately for an already-processed event, and
  raises ``RuntimeError`` if the timeline drains with the event untriggered.
"""

from __future__ import annotations

import pytest

from repro.sim import EmptySchedule, Environment
from repro.sim.process import Interrupt


# ``heap`` names the one timeline: the binary heap ``Environment`` holds.
@pytest.fixture(params=["heap"])
def env(request):
    return Environment()


# ----------------------------------------------------------------------
# negative delays
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delay", [-1.0, -0.001, -1e-12, float("-inf")])
def test_schedule_negative_delay_raises(env, delay):
    with pytest.raises(ValueError, match="negative delay"):
        env.schedule(env.event(), delay=delay)


@pytest.mark.parametrize("delay", [-1.0, -0.001, -1e-12, float("-inf")])
def test_timeout_negative_delay_raises(env, delay):
    with pytest.raises(ValueError):
        env.timeout(delay)


def test_negative_delay_does_not_corrupt_the_timeline(env):
    """A rejected schedule leaves no half-inserted entry behind."""
    with pytest.raises(ValueError):
        env.timeout(-5.0)
    env.timeout(1.0)
    env.run()
    assert env.now == 1.0


def test_zero_delay_is_allowed(env):
    done = []
    event = env.timeout(0.0, value="now")
    event.callbacks.append(lambda e: done.append(e.value))
    env.run()
    assert done == ["now"] and env.now == 0.0


def test_negative_delay_inside_process_surfaces_from_run(env):
    def broken(env):
        yield env.timeout(1.0)
        yield env.timeout(-3.0)

    env.process(broken(env))
    with pytest.raises(ValueError, match="negative delay"):
        env.run()
    assert env.now == 1.0  # the clock stopped where the bug fired


def test_negative_delay_in_interrupt_handler_surfaces(env):
    """The regression case: an interrupt handler 'retrying' with a bad
    (negative) backoff must raise, not quietly run the clock backwards."""

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(-1.0)  # buggy backoff computation

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(2.0)
        proc.interrupt("wake up")

    env.process(killer(env))
    with pytest.raises(ValueError, match="negative delay"):
        env.run()
    assert env.now == 2.0


def test_interrupt_itself_still_works_after_rejected_delay(env):
    """A swallowed ValueError must leave the process machinery coherent."""

    def careful(env, log):
        try:
            env.timeout(-1.0)
        except ValueError:
            log.append("rejected")
        yield env.timeout(0.5)
        log.append("slept")

    log = []
    env.process(careful(env, log))
    env.run()
    assert log == ["rejected", "slept"] and env.now == 0.5


# ----------------------------------------------------------------------
# run(until=event) pins
# ----------------------------------------------------------------------
def test_until_event_stops_exactly_at_processing_time(env):
    """Later events must stay queued: run() stops at the event, not after."""
    marker = env.timeout(3.0, value="stop-here")
    env.timeout(10.0)  # must remain unprocessed
    assert env.run(until=marker) == "stop-here"
    assert env.now == 3.0
    assert env.peek() == 10.0  # the later event is still queued


def test_until_triggered_but_unprocessed_event_runs_one_step(env):
    """An event can be triggered (queued) but not yet processed; run() must
    still execute it and return its value."""
    event = env.event()
    event.succeed("queued-value")
    assert event.triggered and not event.processed
    assert env.run(until=event) == "queued-value"
    assert event.processed


def test_until_already_processed_event_returns_without_stepping(env):
    event = env.timeout(1.0, value=42)
    env.run()
    assert event.processed
    env.timeout(5.0)  # would advance the clock if run() stepped
    assert env.run(until=event) == 42
    assert env.now == 1.0  # untouched: run() returned immediately


def test_until_never_triggered_event_raises_runtime_error(env):
    env.timeout(1.0)
    orphan = env.event()
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=orphan)
    assert env.now == 1.0  # the timeline drained before the error


def test_until_process_event_returns_process_value(env):
    def job(env):
        yield env.timeout(2.0)
        return "done"

    proc = env.process(job(env))
    assert env.run(until=proc) == "done"
    assert env.now == 2.0


def test_step_on_empty_timeline_raises_empty_schedule(env):
    with pytest.raises(EmptySchedule):
        env.step()
