"""Integration-style tests for the replica server simulation process."""

import pytest

from repro.replica import LLAMA_8B_L4, ReplicaServer, TINY_TEST_PROFILE

from ..conftest import make_request


def drive(env, replica, requests, until=200.0):
    """Submit requests at t=0 and run the simulation."""
    def feeder(env):
        for request in requests:
            request.sent_time = env.now
            request.lb_arrival_time = env.now
            yield replica.submit(request)

    env.process(feeder(env))
    env.run(until=until)


def test_single_request_completes_with_sane_timestamps(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    done = []
    replica.add_completion_listener(done.append)
    request = make_request(prompt_len=40, output_len=5)
    drive(env, replica, [request])
    assert done == [request]
    assert request.finished
    assert request.first_token_time is not None
    assert request.finish_time >= request.first_token_time
    assert request.schedule_time >= request.replica_arrival_time
    assert request.generated_tokens == 5
    assert request.replica_name == "us/r0"
    assert request.serving_region == "us"


def test_first_token_listener_fires_before_completion(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    done = []
    replica.add_completion_listener(lambda r: done.append((r.first_token_time, env.now)))
    drive(env, replica, [make_request(prompt_len=30, output_len=4)])
    ((first_token_time, done_time),) = done
    assert first_token_time is not None and first_token_time <= done_time


def test_requests_with_longer_output_take_longer(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    short = make_request(prompt_len=20, output_len=2)
    long = make_request(prompt_len=20, output_len=40)
    drive(env, replica, [short, long])
    assert short.e2e_latency < long.e2e_latency


def test_prefix_sharing_reduces_ttft(env):
    replica = ReplicaServer(env, "us/r0", "us", LLAMA_8B_L4)
    shared = tuple(range(900_000, 900_800))
    cold = make_request(prompt_len=1000, prefix=shared, output_len=1)
    warm = make_request(prompt_len=1000, prefix=shared, output_len=1)
    done = []
    replica.add_completion_listener(done.append)

    def feeder(env):
        cold.sent_time = env.now
        cold.lb_arrival_time = env.now
        yield replica.submit(cold)
        yield env.timeout(10)
        warm.sent_time = env.now
        warm.lb_arrival_time = env.now
        yield replica.submit(warm)

    env.process(feeder(env))
    env.run(until=100)
    assert len(done) == 2
    assert warm.cached_prefix_tokens >= 700
    assert warm.ttft < cold.ttft


def test_pending_queue_builds_under_memory_pressure(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    capacity = TINY_TEST_PROFILE.kv_capacity_tokens
    big_prompt = capacity - TINY_TEST_PROFILE.admission_output_reserve
    requests = [
        make_request(prompt_len=big_prompt, output_len=200),
        make_request(prompt_len=big_prompt, output_len=200),
    ]

    def feeder(env):
        for request in requests:
            request.sent_time = env.now
            request.lb_arrival_time = env.now
            yield replica.submit(request)

    env.process(feeder(env))
    env.run(until=0.5)
    # The second request cannot be admitted while the first occupies memory.
    assert replica.num_pending >= 1


def test_has_capacity_when_idle(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    env.run(until=0.1)
    assert replica.healthy and replica.num_pending == 0
    assert replica.num_outstanding == 0


def test_fail_aborts_outstanding_work_and_rejects_new(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    request = make_request(prompt_len=30, output_len=500)

    def feeder(env):
        request.sent_time = env.now
        request.lb_arrival_time = env.now
        yield replica.submit(request)
        yield env.timeout(1.0)
        aborted = replica.fail()
        assert request in aborted

    env.process(feeder(env))
    env.run(until=5.0)
    assert not replica.healthy
    assert request.status == "failed"
    with pytest.raises(RuntimeError):
        replica.submit(make_request())


def test_recover_restores_service(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    done = []
    replica.add_completion_listener(done.append)

    def scenario(env):
        yield env.timeout(0.1)
        replica.fail()
        yield env.timeout(0.1)
        replica.recover()
        request = make_request(prompt_len=20, output_len=2)
        request.sent_time = env.now
        request.lb_arrival_time = env.now
        yield replica.submit(request)

    env.process(scenario(env))
    env.run(until=20.0)
    assert len(done) == 1
    assert replica.healthy


def test_utilization_samples_recorded_when_enabled(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE, record_utilization=True)
    drive(env, replica, [make_request(prompt_len=30, output_len=10)])
    assert replica.stats.utilization_samples
    times = [t for t, _ in replica.stats.utilization_samples]
    assert times == sorted(times)
    assert all(0.0 <= u <= 1.0 for _, u in replica.stats.utilization_samples)


def test_stats_accumulate_busy_time(env):
    replica = ReplicaServer(env, "us/r0", "us", TINY_TEST_PROFILE)
    drive(env, replica, [make_request(prompt_len=30, output_len=10)])
    assert replica.stats.steps > 0
    assert replica.stats.busy_time > 0
    assert replica.stats.prefill_time > 0
    assert replica.stats.decode_time > 0
