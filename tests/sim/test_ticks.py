"""Ticks: same-instant ``call_later`` calls share one timeline entry, exactly.

``Environment.call_later`` must run each callback where a ``Timeout``
created at the same moment would have run it.  These tests drive seeded
scripts twice -- once with every call an ordinary ``Timeout`` plus callback
(the reference) and once through ``call_later`` -- and check that the
callbacks run in the same order at the same ``now``, and that deferred
timers settled from inside them fire at the same points.  The scripts force
the collisions a tick has to step around:

* ordinary zero-delay and URGENT events landing between two members;
* members joining the tick that is running them;
* deferred timers read through ``settle()`` inside members;
* ``run(until=)`` stopping exactly on a tick's instant, and calls made
  between runs.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sim import Environment
from repro.sim.engine import URGENT

N_SCRIPTS = 60
#: Few distinct delays, so many calls and events land on the same instant.
DELAYS = (0.0, 0.25, 0.5, 0.5, 1.0)
#: Where each script stops the clock: every one is a likely tick instant.
STOPS = (0.5, 1.0, 1.0, 1.5, 2.5, 4.0)
MAX_LABELS = 400


def _urgent(env: Environment):
    """An event processed before every normal event at the current instant."""
    event = env.event()
    event._ok = True
    env.schedule(event, priority=URGENT)
    return event


def _run(seed: int, ticks: bool):
    """Run script ``seed``; returns (log, env, steps taken)."""
    env = Environment()
    rng = random.Random(seed)
    labels = itertools.count()
    log = []
    steps = [0]
    step = env.step

    def counted_step():
        steps[0] += 1
        step()

    env.step = counted_step

    def later(delay):
        label = next(labels)
        if ticks:
            env.call_later(delay, member, label)
        else:
            env.timeout(delay).callbacks.append(lambda _timeout: member(label))

    def logged(kind, label):
        def callback(event):
            env.settle()
            log.append((kind, label, env.now))
            spawn()

        return callback

    def landed(label):
        def callback(timer):
            log.append(("deferred", label, timer.at, env.now))

        return callback

    def member(label):
        env.settle()
        log.append(("call", label, env.now))
        spawn()

    def spawn():
        for _ in range(rng.choice((0, 1, 1, 2))):
            if next(labels) > MAX_LABELS:
                return
            roll = rng.random()
            if roll < 0.25:
                # Joins the running tick when called from a member.
                later(0.0)
            elif roll < 0.5:
                later(rng.choice(DELAYS))
            elif roll < 0.6:
                _urgent(env).callbacks.append(logged("urgent", next(labels)))
            elif roll < 0.8:
                delay = rng.choice(DELAYS)
                env.timeout(delay).callbacks.append(logged("event", next(labels)))
            else:
                timer = env.defer(rng.choice(DELAYS))
                timer.callbacks.append(landed(next(labels)))

    for stop in STOPS:
        for _ in range(rng.randrange(1, 4)):
            later(rng.choice(DELAYS))
        env.settle()
        env.run(until=stop)
        log.append(("stop", env.now, env.peek()))
    env.run()
    return log, env, steps[0]


@pytest.mark.parametrize("seed", range(N_SCRIPTS))
def test_ticks_run_calls_where_timeouts_would(seed):
    expected, reference, _ = _run(seed, ticks=False)
    log, env, steps = _run(seed, ticks=True)
    assert log == expected
    assert env.now == reference.now
    # Every timer a call saved is one fewer scheduled entry, and a tick
    # popped again is one step more than it scheduled.
    assert env._eid <= reference._eid
    assert steps >= env._eid
    assert not env._ticks


def test_the_scripts_step_around_other_entries():
    """Some tick in the scripts must go back on the timeline because an
    event sorts between two of its members."""
    repushed = 0
    for seed in range(N_SCRIPTS):
        _, env, steps = _run(seed, ticks=True)
        repushed += steps - env._eid
    assert repushed > N_SCRIPTS


def test_same_instant_calls_share_one_entry():
    env = Environment()
    calls = []
    for name in "abc":
        env.call_later(1.0, calls.append, name)
    assert env._eid == 1
    env.run()
    assert calls == ["a", "b", "c"]
    assert env.events_processed == 1


def test_a_member_joins_the_running_tick():
    env = Environment()
    calls = []

    def first():
        calls.append(("first", env.now))
        env.call_later(0.0, calls.append, ("joined", env.now))

    env.call_later(0.5, first)
    env.run()
    assert calls == [("first", 0.5), ("joined", 0.5)]
    assert env._eid == 1


def test_an_event_between_members_runs_between_them():
    env = Environment()
    order = []
    env.call_later(1.0, order.append, "first")
    env.timeout(1.0).callbacks.append(lambda _: order.append("timeout"))
    env.call_later(1.0, order.append, "second")
    env.run()
    assert order == ["first", "timeout", "second"]
    # Two entries scheduled, three popped: the tick stepped back once.
    assert env._eid == 2


def test_a_failing_member_leaves_no_tick_behind():
    env = Environment()

    def fail():
        raise KeyError("boom")

    env.call_later(1.0, fail)
    with pytest.raises(KeyError):
        env.run()
    calls = []
    env.call_later(0.0, calls.append, "after")
    env.run()
    assert calls == ["after"]


def test_call_later_rejects_a_negative_delay():
    with pytest.raises(ValueError):
        Environment().call_later(-1.0, print)
