"""Decode runs are invisible: the replica that schedules one event per
batch change simulates exactly what the one-event-per-step loop does.

Every scenario runs twice on ``TINY_TEST_PROFILE`` (2,000 KV tokens, batches
of 8): once on :class:`~repro.replica.ReplicaServer` and once on the
:class:`~tests.replica.stepwise.StepwiseReplica` oracle.  The two runs must
agree on every request timestamp (first token included) and token count,
the order and time of every completion, the step statistics and utilization
samples, what ``fail()`` aborts, and every probe read taken along the way.

Scenarios mix random arrivals (one of them landing exactly on a step
boundary the oracle computed), batches that outgrow the KV budget and
preempt, a prompt too large to admit beside the running batch (a
memory-blocked head while the batch is not full), a degrade and restore,
a crash and recovery, and ``record_utilization``.  The wide scenarios run
40 or more concurrent sequences (``WIDE_PROFILE``), the batch size of the
diurnal-offload benchmark, where the step clock's finish heap pops tied
and out-of-admission-order finishers.
"""

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import MemoryConfig
from repro.replica import ModelProfile, ReplicaServer, TINY_TEST_PROFILE
from repro.sim import Environment
from repro.workloads.request import Request

from .stepwise import StepwiseReplica

#: A request: (shared-prefix length, fresh prompt tokens, output tokens,
#: arrival time).
RequestSpec = Tuple[int, int, int, float]

#: The accessors a read goes through: ``stats`` and ``batcher`` catch up,
#: ``utilization`` counts the ended steps without applying them.
READS = ("stats", "utilization", "batcher")

#: A prompt that fits an idle replica but not beside a running batch.
BLOCKING_PROMPT = 1_850

#: The tiny profile with batches of 64 and 12,000 KV tokens.
WIDE_PROFILE = replace(
    TINY_TEST_PROFILE, name="tiny-wide", max_batch_size=64, gpu_memory_bytes=13_000
)


@dataclass(frozen=True)
class Scenario:
    requests: Tuple[RequestSpec, ...]
    #: (time, one of READS)
    reads: Tuple[Tuple[float, str], ...] = ()
    #: (degrade at, restore at, compute-rate scale)
    degrade: Optional[Tuple[float, float, float]] = None
    #: (fail at, recover at)
    crash: Optional[Tuple[float, float]] = None
    record_utilization: bool = False
    #: Picks the oracle step boundary the extra arrival lands on.
    boundary: Optional[int] = None
    profile: ModelProfile = TINY_TEST_PROFILE


def _requests(scenario: Scenario) -> List[Request]:
    shared = tuple(range(10_000, 10_100))
    requests = []
    for index, (prefix_len, fresh, output_len, _) in enumerate(scenario.requests):
        prompt = shared[:prefix_len] + tuple(
            range(100_000 * (index + 1), 100_000 * (index + 1) + fresh)
        )
        requests.append(Request(prompt_tokens=prompt, output_len=output_len))
    return requests


def _simulate(cls, scenario: Scenario, record_utilization: bool):
    env = Environment()
    replica = cls(env, "us/r0", "us", scenario.profile, record_utilization=record_utilization)
    requests = _requests(scenario)
    index = {id(request): i for i, request in enumerate(requests)}
    log = []
    replica.add_completion_listener(lambda r: log.append(("done", index[id(r)], env.now)))

    def at(when, action):
        env.timeout(when).callbacks.append(lambda _: action())

    def submit(i, request):
        def action():
            if replica.healthy:
                request.sent_time = env.now
                replica.submit(request)
            else:
                log.append(("rejected", i, env.now))
        return action

    def read(kind):
        # Each kind goes through one accessor only, so a missing catch-up
        # (or a miscounted step) in any of them shows.
        probes = (
            replica.num_pending,
            replica.num_running,
            replica.num_outstanding,
            replica.cache_hit_rate,
            replica.healthy,
            replica.load(),
        )
        if kind == "stats":
            stats = replica.stats
            value = (
                stats.steps,
                stats.busy_time,
                stats.decode_time,
                list(stats.utilization_samples),
            )
        elif kind == "utilization":
            value = replica.memory_utilization
        else:
            batcher = replica.batcher
            value = (
                batcher.total_generated_tokens,
                batcher.memory.used_tokens,
                tuple(
                    (index[id(s.request)], s.generated, s.request.generated_tokens)
                    for s in batcher.running
                ),
                _radix_state(batcher.memory.cache),
            )
        log.append(("read", kind, env.now, probes, value))

    for i, (request, spec) in enumerate(zip(requests, scenario.requests)):
        at(spec[3], submit(i, request))
    for when, kind in scenario.reads:
        at(when, lambda kind=kind: read(kind))
    if scenario.degrade is not None:
        start, end, scale = scenario.degrade
        tokens = []
        at(start, lambda: tokens.append(replica.set_performance_level(scale)))
        at(end, lambda: replica.restore_performance(tokens[0]))
    if scenario.crash is not None:
        down, up = scenario.crash
        at(down, lambda: log.append(
            ("failed", env.now, sorted(index[id(r)] for r in replica.fail()))
        ))
        at(up, replica.recover)
    env.run(until=20.0)

    stats = replica.stats
    batcher = replica.batcher
    outcome = {
        "log": log,
        "requests": [
            (
                r.status,
                r.replica_arrival_time,
                r.schedule_time,
                r.first_token_time,
                r.finish_time,
                r.generated_tokens,
                r.cached_prefix_tokens,
            )
            for r in requests
        ],
        "stats": (
            stats.busy_time,
            stats.prefill_time,
            stats.decode_time,
            stats.steps,
            list(stats.utilization_samples),
        ),
        "batcher": (
            batcher.total_generated_tokens,
            batcher.total_preemptions,
            batcher.total_preempted_tokens,
            batcher.total_finished,
        ),
        "radix": _radix_state(batcher.memory.cache),
    }
    return outcome, replica


def _radix_state(cache):
    """Every cached edge with its LRU clock and lock count: a failed
    admission still touches the prefix it matched."""
    state, stack = [], [cache.root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            state.append(
                (child.path_tokens()[:3], len(child.key), child.last_access,
                 child.lock_count)
            )
            stack.append(child)
    return sorted(state)


def _with_boundary_arrival(scenario: Scenario) -> Scenario:
    """Add an arrival exactly at one of the oracle's step boundaries."""
    if scenario.boundary is None:
        return scenario
    _, oracle = _simulate(StepwiseReplica, scenario, record_utilization=True)
    boundaries = [when for when, _ in oracle.stats.utilization_samples]
    if not boundaries:
        return scenario
    when = boundaries[scenario.boundary % len(boundaries)]
    return replace(scenario, requests=scenario.requests + ((0, 40, 12, when),), boundary=None)


def _reads(*times: float) -> Tuple[Tuple[float, str], ...]:
    """Reads at ``times``, cycling through the accessors."""
    return tuple((when, READS[i % len(READS)]) for i, when in enumerate(times))


def assert_identical(scenario: Scenario):
    scenario = _with_boundary_arrival(scenario)
    expected, oracle = _simulate(StepwiseReplica, scenario, scenario.record_utilization)
    actual, replica = _simulate(ReplicaServer, scenario, scenario.record_utilization)
    assert actual == expected
    # Same simulation with fewer events: one per decode run, not per step.
    saved = oracle.env._eid - replica.env._eid
    assert saved >= 0
    return actual, saved


# ----------------------------------------------------------------------
# directed scenarios: each exercises one way a run ends early
# ----------------------------------------------------------------------
def test_lone_request_is_one_run():
    outcome, saved = assert_identical(
        Scenario(requests=((0, 30, 40, 0.0),), reads=_reads(0.03, 0.05, 0.07))
    )
    assert outcome["requests"][0][5] == 40
    # 39 decode steps become one wake; the oracle also spends an event
    # starting its process.
    assert saved == 38 + 1


def test_arrivals_cut_runs_including_one_on_a_boundary():
    requests = tuple((20, 30 + i, 25 + 5 * i, 0.013 * i) for i in range(6))
    for boundary in range(0, 40, 7):
        assert_identical(
            Scenario(requests=requests, reads=_reads(0.021, 0.077, 0.1), boundary=boundary)
        )


def test_kv_budget_preempts():
    requests = tuple((0, 150, 250, 0.001 * i) for i in range(8))
    outcome, _ = assert_identical(
        Scenario(requests=requests, reads=_reads(0.1, 0.4, 0.9), record_utilization=True)
    )
    assert outcome["batcher"][1] > 0, "no preemption happened"


def test_memory_blocked_head_with_a_free_batch_slot():
    # All three share a cached prefix, which every failed admission touches.
    requests = ((100, 100, 60, 0.0), (100, 100, 80, 0.0), (100, BLOCKING_PROMPT, 5, 0.02))
    outcome, _ = assert_identical(Scenario(requests=requests, reads=_reads(0.05, 0.1, 0.15)))
    # The blocked prompt is admitted only after both others finish.
    first_done = max(outcome["requests"][0][4], outcome["requests"][1][4])
    assert outcome["requests"][2][2] >= first_done


def test_degrade_and_restore_mid_run():
    requests = ((0, 50, 120, 0.0), (10, 50, 90, 0.004))
    assert_identical(
        Scenario(requests=requests, reads=_reads(0.05, 0.3, 0.33), degrade=(0.0573, 0.2111, 0.55))
    )


def test_fail_then_recover_mid_run():
    requests = ((0, 50, 200, 0.0), (0, 60, 150, 0.002), (0, 30, 20, 0.3), (0, 30, 20, 0.5))
    outcome, _ = assert_identical(
        Scenario(
            requests=requests,
            reads=_reads(0.1, 0.35, 0.6),
            crash=(0.1234, 0.4),
            record_utilization=True,
        )
    )
    assert any(entry[0] == "failed" and entry[2] for entry in outcome["log"])
    assert outcome["requests"][3][0] == "finished"


# ----------------------------------------------------------------------
# wide batches: 40+ concurrent sequences
# ----------------------------------------------------------------------
def _done_times(outcome):
    return {entry[1]: entry[2] for entry in outcome["log"] if entry[0] == "done"}


def _widest_batch(outcome):
    return max(entry[3][1] for entry in outcome["log"] if entry[0] == "read")


def test_wide_batch_tied_and_overtaking_finishes():
    # 48 sequences in three waves; within a wave, output lengths repeat
    # every five requests, so several finish on one step, and later
    # admissions with shorter outputs finish before earlier ones.
    requests = tuple(
        (40 * (i % 2), 20 + i % 9, 30 + 7 * (4 - i % 5) + 3 * (i // 16), 0.02 * (i // 16))
        for i in range(48)
    )
    outcome, _ = assert_identical(
        Scenario(
            requests=requests,
            reads=_reads(0.05, 0.11, 0.2, 0.23, 0.31, 0.4, 0.52),
            profile=WIDE_PROFILE,
            record_utilization=True,
        )
    )
    assert _widest_batch(outcome) >= 40
    done = _done_times(outcome)
    assert len(done) == 48
    assert len(set(done.values())) < len(done) - 10, "few finishes share a step"
    assert any(done[j] < done[i] for i in range(48) for j in range(i + 1, 48))


def test_wide_batch_preempts_and_readmits():
    # 2,800 KV tokens: 48 admissions fit, their outputs do not.
    profile = replace(WIDE_PROFILE, gpu_memory_bytes=3_800)
    requests = tuple((0, 25 + i % 7, 30 + 13 * (i % 5), 0.001 * i) for i in range(48))
    outcome, _ = assert_identical(
        Scenario(
            requests=requests,
            reads=_reads(0.08, 0.17, 0.29, 0.41, 0.6, 0.9),
            profile=profile,
            record_utilization=True,
        )
    )
    assert _widest_batch(outcome) >= 40
    assert outcome["batcher"][1] > 0, "no preemption happened"
    # Every preempted request was re-admitted and finished.
    assert all(request[0] == "finished" for request in outcome["requests"])


def test_wide_batch_crash_mid_run():
    requests = tuple(
        (40 * (i % 3 == 0), 30 + i % 11, 40 + 9 * (i % 8), 0.002 * i) for i in range(48)
    )
    late = tuple((0, 30, 25 + i, 0.5 + 0.01 * i) for i in range(44))
    outcome, _ = assert_identical(
        Scenario(
            requests=requests + late,
            reads=_reads(0.12, 0.2, 0.6, 0.7),
            crash=(0.1687, 0.45),
            profile=WIDE_PROFILE,
            record_utilization=True,
        )
    )
    assert _widest_batch(outcome) >= 40
    failed = next(entry[2] for entry in outcome["log"] if entry[0] == "failed")
    assert len(failed) >= 40
    assert all(request[0] == "finished" for request in outcome["requests"][48:])


@pytest.mark.parametrize(
    "memory",
    [
        MemoryConfig(),
        MemoryConfig(
            page_size=16, hbm_fraction=0.5, host_capacity_tokens=4096, offload="lru-demote"
        ),
    ],
    ids=["default", "paged-host-tier"],
)
def test_utilization_read_mid_run_applies_no_step(memory):
    """A probe's ``memory_utilization`` (and ``load()``) read counts the
    steps that have ended inside the run in flight instead of applying
    them, and still equals what the one-step-at-a-time loop reports."""
    shared = tuple(range(10_000, 10_060))

    def simulate(cls):
        requests = [
            Request(
                prompt_tokens=shared + tuple(range(1_000 * i, 1_000 * i + 40 + 7 * i)),
                output_len=30 + 13 * i,
            )
            for i in range(6)
        ]
        env = Environment()
        replica = cls(
            env, "us/r0", "us", TINY_TEST_PROFILE, memory=memory, record_utilization=True
        )
        reads, counted = [], []

        def read(_):
            applied = replica._applied
            counted.append(replica._ended_steps())
            utilization = replica.memory_utilization
            load = replica.load()
            assert load == (
                replica.num_pending, replica.num_running, replica.num_outstanding, utilization
            )
            reads.append((env.now, utilization))
            assert replica._applied == applied

        for i, request in enumerate(requests):
            env.timeout(0.011 * i).callbacks.append(
                lambda _, request=request: replica.submit(request)
            )
        for k in range(1, 120):
            env.timeout(0.00737 * k).callbacks.append(read)
        env.run(until=2.0)
        assert all(request.finished for request in requests)
        return reads, counted, list(replica.stats.utilization_samples)

    expected, _, expected_samples = simulate(StepwiseReplica)
    actual, counted, samples = simulate(ReplicaServer)
    assert actual == expected
    assert samples == expected_samples
    # Many reads landed inside a run with ended but unapplied steps.
    assert sum(1 for done in counted if done) > 20


# ----------------------------------------------------------------------
# randomized scenarios
# ----------------------------------------------------------------------
times = st.floats(min_value=0.0, max_value=0.6, allow_nan=False)
kinds = st.sampled_from(READS)
prefixes = st.sampled_from([0, 0, 40, 100])


@st.composite
def scenarios(draw):
    requests = draw(st.lists(
        st.tuples(
            prefixes,
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=1, max_value=120),
            times,
        ),
        min_size=1,
        max_size=10,
    ))
    if draw(st.booleans()):
        requests.append(
            (draw(prefixes), BLOCKING_PROMPT, draw(st.integers(1, 20)), draw(times))
        )
    degrade = None
    if draw(st.booleans()):
        start = draw(times)
        degrade = (start, start + draw(times), draw(st.sampled_from([0.4, 0.55, 0.85])))
    crash = None
    if draw(st.booleans()):
        down = draw(times)
        crash = (down, down + draw(st.floats(min_value=0.0, max_value=0.3)))
    return Scenario(
        requests=tuple(requests),
        reads=tuple(draw(st.lists(st.tuples(times, kinds), max_size=12))),
        degrade=degrade,
        crash=crash,
        record_utilization=draw(st.booleans()),
        boundary=draw(st.none() | st.integers(min_value=0, max_value=10_000)),
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_decode_runs_match_the_stepwise_loop(scenario):
    assert_identical(scenario)
