"""Differential engine-equivalence harness: calendar queue vs heap oracle.

The calendar-queue timeline must be *indistinguishable* from the original
``heapq`` timeline — same pop order, same clock, same final state — because
every golden trace in this repo was recorded against the heap.  Two seeded
fuzzers pin that:

* a **structure-level** fuzzer drives the two raw timelines with the same
  randomized push/pop schedules (mixed delays, priorities, same-timestamp
  bursts, ``inf`` entries) and asserts the popped sequences are identical,
  entry for entry, and
* an **engine-level** fuzzer builds randomized simulations (processes with
  mixed delays, absolute-time inserts, same-time bursts, ``AllOf``/``AnyOf``
  conditions, events succeeded by helpers, urgent-priority interrupts that
  cancel waits) from a pre-drawn script, runs the identical script under
  ``Environment(timeline="heap")`` and ``Environment(timeline="calendar")``
  and asserts the full execution traces and final states match.

Together the two fuzzers replay well over a thousand randomized schedules
(``N_STRUCTURE_SCHEDULES`` + ``N_ENGINE_SCHEDULES`` below).  The engine runs
double as property checks: the observed clock must be monotone and every
event pushed must be popped exactly once (event-count conservation) — these
assert unconditionally, and CI's ``REPRO_STRICT_INVARIANTS=1`` tier runs
them like every other test.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Environment
from repro.sim.calendar import CalendarQueue
from repro.sim.engine import _HeapTimeline
from repro.sim.process import Interrupt

N_STRUCTURE_SCHEDULES = 800
N_ENGINE_SCHEDULES = 256


# ----------------------------------------------------------------------
# structure level: raw timeline pop-order identity
# ----------------------------------------------------------------------
def _structure_schedule(seed: int):
    """One randomized push/pop schedule, pre-drawn so both timelines see
    byte-identical operations."""
    rng = random.Random(seed)
    ops = []
    for _ in range(rng.randrange(40, 300)):
        if rng.random() < 0.6:
            roll = rng.random()
            if roll < 0.30:
                delay = rng.choice([0.0, 0.0, 0.125, 1.0])  # same-time bursts
            elif roll < 0.90:
                delay = rng.uniform(0.0, 50.0)
            elif roll < 0.97:
                delay = rng.uniform(0.0, 50_000.0)  # far-future outliers
            else:
                delay = float("inf")
            ops.append(("push", delay, rng.randrange(3)))
        else:
            ops.append(("pop",))
    return ops


def _drive_structure(timeline, ops):
    """Apply a schedule to one timeline; returns (popped, pushes)."""
    popped = []
    now = 0.0
    eid = 0
    pushes = 0
    for op in ops:
        if op[0] == "push":
            eid += 1
            pushes += 1
            timeline.push((now + op[1], op[2], eid, f"payload-{eid}"))
        elif timeline:
            entry = timeline.pop()
            popped.append(entry)
            if entry[0] != float("inf"):
                now = entry[0]
    while timeline:
        popped.append(timeline.pop())
    return popped, pushes


@pytest.mark.parametrize("chunk", range(8))
def test_structure_fuzzer_pop_order_identity(chunk):
    """Calendar pops every schedule in exactly the heap's order."""
    per_chunk = N_STRUCTURE_SCHEDULES // 8
    for index in range(per_chunk):
        seed = 10_000 + chunk * per_chunk + index
        ops = _structure_schedule(seed)
        heap_popped, heap_pushes = _drive_structure(_HeapTimeline(), ops)
        cal_popped, cal_pushes = _drive_structure(CalendarQueue(), ops)
        assert cal_popped == heap_popped, f"divergence at schedule seed {seed}"
        # Conservation: every push pops exactly once, on both structures.
        assert heap_pushes == len(heap_popped) == cal_pushes == len(cal_popped)
        # Monotone pop times.  ``inf`` entries are excluded: one can pop
        # while it is momentarily the only entry, after which later pushes
        # add finite times again (the driver's clock does not advance on
        # ``inf``), so only the finite subsequence is monotone.
        times = [entry[0] for entry in cal_popped if entry[0] != float("inf")]
        assert times == sorted(times), f"non-monotone pops at seed {seed}"


# ----------------------------------------------------------------------
# engine level: full-simulation differential fuzzer
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
            elif roll < 0.70:
                steps.append(("all_of", [rng.uniform(0, 3) for _ in range(rng.randrange(2, 5))]))
            elif roll < 0.85:
                steps.append(("any_of", [rng.uniform(0, 3) for _ in range(rng.randrange(2, 5))]))
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


def _run_engine_script(script, timeline: str):
    """Execute one pre-drawn script; returns (trace, final_now, eids)."""
    workers_steps, interrupts = script
    env = Environment(timeline=timeline)
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
                elif step[0] == "any_of":
                    # The losing timeouts still fire later: exercises the
                    # already-processed / double-pop no-op paths.
                    yield env.any_of([env.timeout(d) for d in step[1]])
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
    return trace, env.now, env._eid


@pytest.mark.parametrize("chunk", range(4))
def test_engine_fuzzer_trace_and_final_state_identity(chunk):
    """Identical scripts produce identical traces under both timelines."""
    per_chunk = N_ENGINE_SCHEDULES // 4
    for index in range(per_chunk):
        seed = 77_000 + chunk * per_chunk + index
        script = _engine_script(seed)
        heap_trace, heap_now, heap_eids = _run_engine_script(script, "heap")
        cal_trace, cal_now, cal_eids = _run_engine_script(script, "calendar")
        assert cal_trace == heap_trace, f"trace divergence at script seed {seed}"
        assert cal_now == heap_now, f"final clock differs at script seed {seed}"
        # Event-count conservation: both engines scheduled the same number
        # of events and drained them all (run() returned with empty queues).
        assert cal_eids == heap_eids, f"event counts differ at script seed {seed}"
        # Clock monotonicity property: observed times never run backwards.
        observed = [entry[0] for entry in heap_trace]
        assert observed == sorted(observed), f"clock ran backwards at seed {seed}"


def test_fuzzer_covers_the_advertised_schedule_count():
    """The module's headline claim: >= 1000 randomized schedules replayed."""
    assert N_STRUCTURE_SCHEDULES + N_ENGINE_SCHEDULES >= 1000


# ----------------------------------------------------------------------
# directed differential cases (the classic heap-vs-calendar traps)
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
    heap, cal = _HeapTimeline(), CalendarQueue()
    for eid, delay in enumerate(delays, start=1):
        heap.push((delay, 1, eid, None))
        cal.push((delay, 1, eid, None))
    heap_order = [heap.pop() for _ in range(len(delays))]
    cal_order = [cal.pop() for _ in range(len(delays))]
    assert cal_order == heap_order


def test_interrupted_wait_is_identical_across_timelines():
    """An interrupt cancels a wait whose timeout still fires later; the
    double-scheduled event must be a no-op on both timelines."""

    def run(timeline):
        env = Environment(timeline=timeline)
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
        return log, env.now

    assert run("heap") == run("calendar")
