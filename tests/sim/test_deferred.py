"""Deferred timers: exact places among events.

A deferred timer (``Environment.defer``) reserves the place an ordinary
``Timeout`` created at the same moment would take -- a fractional
tie-break between the insertion counter's value and the next integer -- and
either fires from ``settle()`` once the clock passes that place or is
promoted onto the timeline.  These tests drive seeded scripts with
same-instant bursts twice -- once with every deferred timer an ordinary
``Timeout`` (the eager reference) and once lazily -- and check:

* promoted deferred timers pop exactly where ordinary timeouts would have;
* settled ones run in that same order, never before their place;
* the insertion counter still counts every ``schedule`` call.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Deferred, Environment

N_SCRIPTS = 40


def _script(seed: int):
    """Operations for a driver process: ``("timer", delay)``,
    ``("defer", delay, promote_after)`` and ``("wait", delay)``, with delays
    drawn from a small set so many land on the same float instant."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randrange(30, 120)):
        roll = rng.random()
        delay = rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, 1.0, 1.75])
        if roll < 0.35:
            ops.append(("timer", delay))
        elif roll < 0.75:
            # Promote strictly before the timer's instant (or at once).
            promote_after = (
                None if delay == 0 or rng.random() < 0.3 else delay * rng.uniform(0, 0.9)
            )
            ops.append(("defer", delay, promote_after))
        else:
            ops.append(("wait", rng.choice([0.0, 0.25, 0.5])))
    return ops


def _run(ops, lazy: bool, promote: bool):
    """Run a script; returns (fired labels with their clock, env, schedule
    calls).  ``lazy=False`` makes every deferred timer an ordinary
    ``Timeout`` (the reference); ``promote=False`` never promotes, so the
    deferred timers fire from ``settle()`` calls made at every op."""
    env = Environment()
    fired = []
    calls = [0]
    schedule = env.schedule

    def counted(*args, **kwargs):
        calls[0] += 1
        return schedule(*args, **kwargs)

    env.schedule = counted

    def log(label):
        def callback(event):
            at = event.at if isinstance(event, Deferred) else env.now
            assert at <= env.now
            fired.append((label, at))

        return callback

    def promoter(timer, after):
        yield env.timeout(after)
        env.promote(timer)

    def driver():
        for index, op in enumerate(ops):
            env.settle()
            if op[0] == "timer":
                env.timeout(op[1]).callbacks.append(log(index))
            elif op[0] == "defer":
                if not lazy:
                    env.timeout(op[1]).callbacks.append(log(index))
                    continue
                timer = env.defer(op[1])
                timer.callbacks.append(log(index))
                if not promote:
                    continue
                if op[2] is None:
                    env.promote(timer)
                else:
                    env.process(promoter(timer, op[2]))
            else:
                yield env.timeout(op[1])
        # Outlast every timer, then settle the ones nobody promoted.
        yield env.timeout(5.0)
        env.settle()

    env.process(driver())
    env.run()
    return fired, env, calls[0]


@pytest.mark.parametrize("seed", range(N_SCRIPTS))
def test_promoted_timers_pop_where_timeouts_would(seed):
    ops = _script(seed)
    expected, _, _ = _run(ops, lazy=False, promote=True)
    fired, env, calls = _run(ops, lazy=True, promote=True)
    assert fired == expected
    assert env._eid == calls
    assert not env._timeline


@pytest.mark.parametrize("seed", range(N_SCRIPTS))
def test_settled_timers_fire_in_timeout_order(seed):
    ops = _script(seed)
    expected, _, _ = _run(ops, lazy=False, promote=False)
    deferred = {index for index, op in enumerate(ops) if op[0] == "defer"}
    fired, env, calls = _run(ops, lazy=True, promote=False)
    assert sorted(fired) == sorted(expected)
    # Deferred timers fire in the reference order, each only after
    # everything the reference ran before it.
    assert [f for f in fired if f[0] in deferred] == [
        f for f in expected if f[0] in deferred
    ]
    for position, item in enumerate(fired):
        if item[0] in deferred:
            before = expected[: expected.index(item)]
            assert set(before) <= set(fired[:position])
    assert env._eid == calls


def test_settle_waits_for_the_place_not_just_the_instant():
    env = Environment()
    fired = []
    early = env.timeout(1.0)  # scheduled before the deferred timer
    timer = env.defer(1.0)
    late = env.timeout(1.0)  # scheduled after it
    timer.callbacks.append(lambda event: fired.append("deferred"))

    def check(label):
        def callback(event):
            env.settle()
            fired.append(label)

        return callback

    early.callbacks.append(check("early"))
    late.callbacks.append(check("late"))
    env.run()
    assert fired == ["early", "deferred", "late"]


def test_run_until_settles_what_fired_by_then():
    env = Environment()
    timer = env.defer(0.5)
    env.timeout(2.0)
    env.run(until=0.5)
    assert timer.processed  # the run stopped at its instant
    env2 = Environment()
    pending = env2.defer(0.75)
    env2.timeout(2.0)
    env2.run(until=0.5)
    assert not pending.processed
    env2.promote(pending)
    assert env2._eid == 2


def test_tiebreaks_increase_between_two_events():
    env = Environment()
    env.timeout(1.0)
    first, second = env.defer(1.0), env.defer(1.0)
    env.timeout(1.0)
    third = env.defer(1.0)
    assert 1 < first.key < second.key < 2 < third.key < 3
    assert env._eid == 2
