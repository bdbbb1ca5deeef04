"""Unit tests for the continuous-batching scheduler state."""

import random
from dataclasses import replace

import pytest

from repro.replica import LLAMA_8B_L4, ContinuousBatcher, ReplicaServer, TINY_TEST_PROFILE
from repro.sim import Environment

from ..conftest import make_request


@pytest.fixture
def batcher():
    return ContinuousBatcher(TINY_TEST_PROFILE)


def test_enqueue_makes_request_pending(batcher):
    request = make_request(prompt_len=20, output_len=3)
    batcher.enqueue(request, now=1.0)
    assert batcher.num_pending == 1
    assert batcher.num_running == 0
    assert batcher.num_outstanding == 1
    assert request.replica_arrival_time == 1.0


def test_admit_moves_requests_into_the_batch(batcher):
    for _ in range(3):
        batcher.enqueue(make_request(prompt_len=10, output_len=2), now=0.0)
    admitted = batcher.admit(now=1.0)
    assert len(admitted) == 3
    assert batcher.num_pending == 0
    assert batcher.num_running == 3
    for seq in admitted:
        assert seq.request.schedule_time == 1.0


def test_admission_respects_max_batch_size(batcher):
    for _ in range(TINY_TEST_PROFILE.max_batch_size + 5):
        batcher.enqueue(make_request(prompt_len=4, output_len=2), now=0.0)
    batcher.admit(now=0.0)
    assert batcher.num_running == TINY_TEST_PROFILE.max_batch_size
    assert batcher.num_pending == 5


def test_admission_blocks_on_memory_and_is_fcfs(batcher):
    capacity = batcher.memory.capacity_tokens
    huge = make_request(prompt_len=capacity - TINY_TEST_PROFILE.admission_output_reserve,
                        output_len=2)
    small_a = make_request(prompt_len=10, output_len=2)
    small_b = make_request(prompt_len=10, output_len=2)
    batcher.enqueue(huge, now=0.0)
    batcher.enqueue(small_a, now=0.0)
    batcher.enqueue(small_b, now=0.0)
    admitted = batcher.admit(now=0.0)
    # The huge request fills memory; the small ones wait behind it (FCFS,
    # head-of-line blocking by design).
    assert [seq.request for seq in admitted] == [huge]
    assert batcher.num_pending == 2


def test_plan_step_prefers_prefill_then_decodes(batcher):
    batcher.enqueue(make_request(prompt_len=30, output_len=3), now=0.0)
    plan = batcher.plan_step(now=0.0)
    assert plan.kind == "prefill"
    assert plan.duration > 0
    finished = batcher.complete_prefill(plan.admitted, now=1.0)
    assert finished == []
    next_plan = batcher.plan_step(now=1.0)
    assert next_plan.kind == "decode"


def test_plan_step_idle_when_no_work(batcher):
    assert batcher.plan_step(now=0.0).kind == "idle"


def test_prefill_emits_first_token_and_single_token_requests_finish(batcher):
    one_shot = make_request(prompt_len=12, output_len=1)
    batcher.enqueue(one_shot, now=0.0)
    plan = batcher.plan_step(now=0.0)
    finished = batcher.complete_prefill(plan.admitted, now=2.0)
    assert finished == [one_shot]
    assert one_shot.first_token_time == 2.0
    assert one_shot.finish_time == 2.0
    assert one_shot.finished


def test_decode_steps_finish_requests_in_output_length_order(batcher):
    short = make_request(prompt_len=10, output_len=2)
    long = make_request(prompt_len=10, output_len=4)
    batcher.enqueue(short, now=0.0)
    batcher.enqueue(long, now=0.0)
    plan = batcher.plan_step(now=0.0)
    batcher.complete_prefill(plan.admitted, now=0.5)
    finish_order = []
    clock = 1.0
    while batcher.num_running:
        finish_order.extend(batcher.complete_decode_step(now=clock))
        clock += 1.0
    assert finish_order == [short, long]
    assert short.generated_tokens == 2
    assert long.generated_tokens == 4


def test_tied_finishers_are_emitted_in_admission_order(batcher):
    # Two admissions per output length, then a late joiner whose last
    # token lands on the same step as the first wave's longest pair.
    first = [make_request(prompt_len=10, output_len=n) for n in (8, 5, 8, 5)]
    for request in first:
        batcher.enqueue(request, now=0.0)
    plan = batcher.plan_step(now=0.0)
    batcher.complete_prefill(plan.admitted, now=0.1)
    batcher.complete_decode_step(now=0.2)
    batcher.complete_decode_step(now=0.3)
    late = make_request(prompt_len=10, output_len=6)
    batcher.enqueue(late, now=0.3)
    plan = batcher.plan_step(now=0.3)
    assert [seq.request for seq in plan.admitted] == [late]
    batcher.complete_prefill(plan.admitted, now=0.4)
    steps = []
    clock = 0.5
    while batcher.num_running:
        finished = batcher.complete_decode_step(now=clock)
        if finished:
            steps.append(finished)
        clock += 0.1
    assert steps == [[first[1], first[3]], [first[0], first[2], late]]
    assert [request.generated_tokens for request in first + [late]] == [8, 5, 8, 5, 6]


def test_preemption_thrash_keeps_the_finish_heap_bounded():
    """48 sequences whose outputs outgrow 3,000 KV tokens: the newest is
    preempted, re-admitted and preempted again at every plan, so no decode
    step runs and no stale heap entry surfaces on its own."""
    profile = replace(TINY_TEST_PROFILE, max_batch_size=64, gpu_memory_bytes=4_000)
    env = Environment()
    replica = ReplicaServer(env, "us/r0", "us", profile)
    for i in range(48):
        request = make_request(prompt_len=25 + i % 7, output_len=40 + 11 * (i % 6))
        env.timeout(0.001 * i).callbacks.append(lambda _, r=request: replica.submit(r))
    env.run(until=2.0)
    batcher = replica.batcher
    assert batcher.total_preemptions > 500
    assert len(batcher._finishes) <= 2 * len(batcher.running)
    batcher.check_invariants()


def test_finished_requests_release_memory(batcher):
    request = make_request(prompt_len=50, output_len=2)
    batcher.enqueue(request, now=0.0)
    plan = batcher.plan_step(now=0.0)
    batcher.complete_prefill(plan.admitted, now=0.1)
    batcher.complete_decode_step(now=0.2)
    assert batcher.num_running == 0
    assert batcher.memory.num_running == 0


def test_cache_hit_rate_reflects_shared_prefixes(batcher):
    shared = tuple(range(5_000, 5_100))
    first = make_request(prompt_len=120, prefix=shared, output_len=1)
    second = make_request(prompt_len=120, prefix=shared, output_len=1)
    for request in (first, second):
        batcher.enqueue(request, now=0.0)
        plan = batcher.plan_step(now=0.0)
        batcher.complete_prefill(plan.admitted, now=0.1)
    assert batcher.total_cached_tokens >= 100
    assert 0.0 < batcher.cache_hit_rate < 1.0
    assert second.cached_prefix_tokens >= 100


def test_abort_all_fails_everything(batcher):
    running = make_request(prompt_len=10, output_len=5)
    waiting = make_request(prompt_len=10, output_len=5)
    batcher.enqueue(running, now=0.0)
    plan = batcher.plan_step(now=0.0)
    batcher.complete_prefill(plan.admitted, now=0.1)
    batcher.enqueue(waiting, now=0.2)
    aborted = batcher.abort_all(now=0.3)
    assert set(aborted) == {running, waiting}
    assert batcher.num_outstanding == 0
    assert all(r.status == "failed" for r in aborted)


@pytest.mark.parametrize("scale", [1.0, 0.37, 2.5])
def test_decode_durations_match_decode_step_time_exactly(scale):
    """The inlined step time is ``ModelProfile.decode_step_time`` (divided
    by the performance scale), float for float, for any batch and context."""
    rng = random.Random(7)
    profile = LLAMA_8B_L4
    for _ in range(25):
        batcher = ContinuousBatcher(profile)
        batcher.performance_scale = scale
        for _ in range(rng.randint(1, 12)):
            batcher.enqueue(
                make_request(prompt_len=rng.randint(1, 3_000), output_len=500), now=0.0
            )
        plan = batcher.plan_step(now=0.0)
        batcher.complete_prefill(plan.admitted, now=0.0)
        batch = len(batcher.running)
        context = batcher.memory.context_tokens_total
        steps = rng.randint(1, 60)
        expected = []
        for step in range(steps):
            compute = profile.decode_step_time(batch, context + step * batch)
            if scale != 1.0:
                compute /= scale
            expected.append(compute)
        assert batcher.decode_durations(steps) == expected


def test_decode_durations_need_a_running_sequence(batcher):
    with pytest.raises(ValueError, match="at least one sequence"):
        batcher.decode_durations(1)
