"""Seeded engine scripts: the timeline's order and its bookkeeping.

The timeline pops ``(time, priority, eid)`` entries in order, where ``eid``
is a strictly increasing insertion counter, so the processing order is one
deterministic sequence -- ties at the same instant run in insertion order.
Every golden trace in this repo was recorded against that order.  Two kinds
of checks pin it:

* an **engine-level** fuzzer builds randomized simulations (processes with
  mixed delays, absolute-time inserts, same-time bursts, ``AllOf``
  conditions, events succeeded by helpers, urgent-priority interrupts that
  cancel waits) from a pre-drawn script (``N_ENGINE_SCHEDULES`` of them)
  and checks properties of each run: the observed clock is monotone, every
  worker reaches ``done``, a rerun reproduces the trace exactly, and after
  ``run()`` the timeline is empty with every scheduled event processed;
* **directed** delay lists (same-instant cohorts, far-future outliers,
  ``inf``, extreme spreads) are processed in ``(time, insertion)`` order.

These assert unconditionally, and CI's ``REPRO_STRICT_INVARIANTS=1`` tier
runs them like every other test.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Environment
from repro.sim.process import Interrupt

N_ENGINE_SCHEDULES = 256


# ----------------------------------------------------------------------
# engine level: randomized simulations
# ----------------------------------------------------------------------
def _engine_script(seed: int):
    """Pre-draw a whole randomized simulation (workers + interrupts)."""
    rng = random.Random(seed)
    num_workers = rng.randrange(3, 9)
    workers = []
    for _ in range(num_workers):
        steps = []
        for _ in range(rng.randrange(1, 7)):
            roll = rng.random()
            if roll < 0.40:
                # Plain timeout; coarse grid forces same-timestamp ties.
                steps.append(("timeout", rng.choice([0.0, 0.5, 0.5, 1.0, rng.uniform(0, 4)])))
            elif roll < 0.55:
                # Same-timestamp burst: AllOf over n equal-delay timeouts.
                steps.append(("burst", rng.randrange(2, 5), rng.choice([0.5, 1.0])))
            elif roll < 0.85:
                steps.append(("all_of", [rng.uniform(0, 3) for _ in range(rng.randrange(2, 5))]))
            elif roll < 0.93:
                # Absolute-time insert; the coarse grid ties it with
                # relative timeouts landing on the same instant.
                steps.append(("at", rng.choice([0.5, 1.0, 1.5, 2.0, rng.uniform(0, 4)])))
            else:
                # Wait on a bare event a helper process succeeds later.
                steps.append(("helper_event", rng.uniform(0, 3)))
        workers.append(steps)
    interrupts = [
        (rng.randrange(num_workers), rng.uniform(0, 3))
        for _ in range(rng.randrange(0, 3))
    ]
    return workers, interrupts


def _run_engine_script(script):
    """Execute one pre-drawn script; returns (trace, env)."""
    workers_steps, interrupts = script
    env = Environment()
    trace = []

    def helper(env, event, delay):
        yield env.timeout(delay)
        if not event.triggered:
            event.succeed("helped")

    def worker(env, wid, steps):
        for index, step in enumerate(steps):
            try:
                if step[0] == "timeout":
                    yield env.timeout(step[1])
                elif step[0] == "burst":
                    yield env.all_of([env.timeout(step[2]) for _ in range(step[1])])
                elif step[0] == "all_of":
                    yield env.all_of([env.timeout(d) for d in step[1]])
                elif step[0] == "at":
                    yield env.timeout_at(max(env.now, step[1]))
                else:  # helper_event
                    event = env.event()
                    env.process(helper(env, event, step[1]))
                    yield event
                trace.append((env.now, wid, index, step[0]))
            except Interrupt as exc:
                # The interrupt cancels the pending wait (the old target
                # event may still fire afterwards) and the worker moves on.
                trace.append((env.now, wid, index, f"interrupted:{exc.cause}"))
        trace.append((env.now, wid, "done"))

    procs = [env.process(worker(env, wid, steps)) for wid, steps in enumerate(workers_steps)]

    def interrupter(env, target, wid, delay):
        yield env.timeout(delay)
        if target.is_alive:
            target.interrupt(f"stop-{wid}")
            trace.append((env.now, "interrupter", wid))

    for wid, delay in interrupts:
        env.process(interrupter(env, procs[wid], wid, delay))

    env.run()
    return trace, env


@pytest.mark.parametrize("chunk", range(4))
def test_engine_fuzzer_trace_and_final_state_identity(chunk):
    """Each script's run is monotone, complete, reproducible and drained."""
    per_chunk = N_ENGINE_SCHEDULES // 4
    for index in range(per_chunk):
        seed = 77_000 + chunk * per_chunk + index
        script = _engine_script(seed)
        trace, env = _run_engine_script(script)
        # Clock monotonicity: observed times never run backwards.
        observed = [entry[0] for entry in trace]
        assert observed == sorted(observed), f"clock ran backwards at seed {seed}"
        done = {entry[1] for entry in trace if entry[2] == "done"}
        assert done == set(range(len(script[0]))), f"a worker never finished at seed {seed}"
        # Determinism: the same script replays the same trace and clock.
        rerun, rerun_env = _run_engine_script(script)
        assert rerun == trace and rerun_env.now == env.now, f"rerun differs at seed {seed}"
        # Event-count conservation: run() drained everything it scheduled.
        assert not env._timeline, f"events left queued at seed {seed}"
        assert env.events_processed == env._eid, f"events lost at seed {seed}"


# ----------------------------------------------------------------------
# directed schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "delays",
    [
        [0.0] * 50,                      # everything at t=0
        [1.0] * 20 + [0.0] * 20,         # two same-time cohorts, pushed interleaved
        [0.5, 0.5, 0.5, 10_000.0, 0.5],  # far-future outlier amid a burst
        [float("inf"), 1.0, float("inf"), 0.0],
        [2.0 ** -20] * 10 + [2.0 ** 20] * 10,  # extreme width spread
    ],
)
def test_directed_schedules_pop_identically(delays):
    """Entries are processed in (time, insertion) order, ``inf`` last."""
    env = Environment()
    processed = []
    for index, delay in enumerate(delays):
        env.timeout(delay).callbacks.append(
            lambda event, index=index: processed.append((env.now, index))
        )
    env.run()
    expected = sorted((delay, index) for index, delay in enumerate(delays))
    assert processed == expected
    assert env.events_processed == env._eid == len(delays)


def test_interrupted_wait_is_identical_across_timelines():
    """An interrupt cancels a wait whose timeout still fires later; the
    double-scheduled event is a no-op."""
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            log.append(("slept", env.now))
        except Interrupt:
            log.append(("interrupted", env.now))
        yield env.timeout(0.5)
        log.append(("after", env.now))

    proc = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(3.0)
        proc.interrupt("bored")

    env.process(killer(env))
    env.run()
    assert log == [("interrupted", 3.0), ("after", 3.5)]
    # The cancelled 10 s timeout still drained the clock to its instant.
    assert env.now == 10.0
