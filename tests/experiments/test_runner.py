"""Integration tests: every system kind runs end to end on a small workload."""

import gc
import weakref
from itertools import takewhile

import pytest

from repro.experiments import (
    ALL_SYSTEMS,
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    WorkloadSpec,
    build_arena_workload,
    build_skewed_workload,
    run_experiment,
)
from repro.faults import FaultSchedule, ReplicaCrash
from repro.replica import TINY_TEST_PROFILE
from repro.workloads import DiurnalPattern, DiurnalRequestStream


def tiny_cluster(per_region=1, **kwargs):
    return ClusterConfig(
        replicas_per_region={"us": per_region, "eu": per_region, "asia": per_region},
        **kwargs,
    )


def run_tiny_served(kind, *, duration=40.0, scale=0.03, workload_builder=build_arena_workload,
                    **system_kwargs):
    """One tiny run, plus the workload's requests it finished:
    ``run_experiment`` drives the closed-loop programs' requests in place,
    so they carry the run's per-request routing fields."""
    workload = workload_builder(scale=scale)
    config = ExperimentConfig(
        system=REGISTRY.spec(kind, hash_key=workload.hash_key, **system_kwargs),
        cluster=tiny_cluster(),
        duration_s=duration,
        seed=1,
    )
    result = run_experiment(config, workload)
    return result, finished_requests(workload)


def run_tiny(kind, **kwargs):
    return run_tiny_served(kind, **kwargs)[0]


def finished_requests(workload):
    return [
        request
        for programs in workload.programs_by_region.values()
        for program in programs
        for request in program.all_requests()
        if request.finished
    ]


@pytest.mark.parametrize("kind", ALL_SYSTEMS + ("region-local",))
def test_every_system_kind_completes_requests(kind):
    result, served = run_tiny_served(kind)
    metrics = result.metrics
    assert metrics.num_completed > 0, f"{kind} completed nothing"
    assert metrics.throughput_tokens_per_s > 0
    assert metrics.ttft.count == metrics.num_completed == len(served)
    assert metrics.ttft.p50 > 0
    assert metrics.e2e_latency.p50 >= metrics.ttft.p50
    # All completed requests carry full routing/execution metadata.
    for request in served:
        assert request.replica_name is not None
        assert request.serving_region is not None
        assert request.first_token_time is not None


def test_centralized_baseline_pays_cross_region_first_hop():
    """Clients in Asia/Europe must cross an ocean to reach the single US
    balancer, so their TTFT includes cross-region latency even when idle."""
    _, served = run_tiny_served("round-robin")
    remote_clients = [r for r in served if r.region != "us"]
    assert remote_clients
    # Every such request was dispatched by the balancer in the US.
    assert all(r.ingress_region == "us" for r in remote_clients)


def test_skywalker_serves_clients_from_their_own_region_when_possible():
    result, served = run_tiny_served("skywalker")
    local = [r for r in served if r.serving_region == r.region]
    assert len(local) / len(served) > 0.7
    assert result.metrics.forwarded_fraction < 0.3


def test_region_local_never_crosses_regions():
    result = run_tiny("region-local", workload_builder=build_skewed_workload)
    assert result.metrics.cross_region_fraction == 0.0
    assert result.metrics.forwarded_fraction == 0.0


def test_skywalker_offloads_under_regional_skew():
    # Tiny replicas (small KV budget) make the skewed US load overflow its
    # region, so cross-region offloading must kick in.
    workload = build_skewed_workload(scale=0.08)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=tiny_cluster(profile=TINY_TEST_PROFILE),
        duration_s=60.0,
        seed=1,
    )
    result = run_experiment(config, workload)
    assert result.metrics.forwarded_fraction > 0.0
    forwarded = [r for r in finished_requests(workload) if r.forward_hops > 0]
    assert forwarded
    assert all(r.forward_hops == 1 for r in forwarded)


def test_prefix_aware_systems_achieve_higher_cache_hit_rate():
    prefix_aware = run_tiny("skywalker").metrics.cache_hit_rate
    oblivious = run_tiny("round-robin").metrics.cache_hit_rate
    assert prefix_aware > oblivious


def test_gdpr_constraint_is_enforced_end_to_end():
    _, served = run_tiny_served("skywalker", constraint="gdpr",
                                workload_builder=build_skewed_workload, duration=60.0, scale=0.05)
    eu_requests = [r for r in served if r.region == "eu"]
    assert eu_requests
    assert all(r.serving_region == "eu" for r in eu_requests)


def test_issued_counts_at_least_completed():
    result = run_tiny("least-load")
    assert result.metrics.num_issued >= result.metrics.num_completed


def test_experiment_is_reproducible_for_a_fixed_seed():
    first = run_tiny("skywalker-ch")
    second = run_tiny("skywalker-ch")
    assert first.metrics.num_completed == second.metrics.num_completed
    assert first.metrics.throughput_tokens_per_s == pytest.approx(
        second.metrics.throughput_tokens_per_s
    )


# ----------------------------------------------------------------------
# open-loop traffic: timed request streams replayed by TraceReplayClients
# ----------------------------------------------------------------------
#: Fig. 2-shaped diurnal profiles: (UTC offset hours, base, peak) per hour.
_DIURNAL_PATTERNS = {
    "us": (-6.0, 900.0, 7600.0),
    "eu": (0.0, 250.0, 1900.0),
    "asia": (8.0, 800.0, 7400.0),
}


def _open_loop_workload(window_s=120.0):
    """The first ``window_s`` of hour 0 of each region's diurnal stream at
    half the profile rate: 159 requests, open loop, no closed-loop clients."""
    timed = {}
    for region, (offset, base, peak) in _DIURNAL_PATTERNS.items():
        stream = DiurnalRequestStream(
            pattern=DiurnalPattern(offset, base_rate=base, peak_rate=peak),
            region=region,
            hours=1,
            seed=0,
            rate_scale=0.5,
        )
        timed[region] = list(takewhile(lambda pair: pair[0] < window_s, stream))
    return WorkloadSpec(
        name="open-loop-diurnal",
        programs_by_region={},
        clients_per_region={},
        timed_requests_by_region=timed,
    )


def _run_open_loop(workload, *, duration_s=300.0, faults=None):
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker"),
        cluster=tiny_cluster(profile=TINY_TEST_PROFILE),
        duration_s=duration_s,
        seed=0,
        faults=faults,
    )
    return run_experiment(config, workload)


#: Events the same cell processed when it was wired by hand (Network,
#: Deployment, tracker, frontend, build_system and TraceReplayClients)
#: and stepped until the horizon (35,390), less the monitors' cycle starts
#: and peer-probe sends that now share one tick per instant.
OPEN_LOOP_EVENTS = 20_385


def test_open_loop_streams_drain_losslessly_without_retaining_requests():
    result = _run_open_loop(_open_loop_workload())
    metrics = result.metrics
    assert result.tracker.outstanding == 0
    assert metrics.num_issued == metrics.num_completed == result.tracker.num_completed == 159
    assert result.env.events_processed == OPEN_LOOP_EVENTS


def _watched_stream_workload(sent):
    """The US diurnal stream's first hour at a tenth of the profile rate,
    appending a weak reference to ``sent`` for each request it yields."""
    stream = DiurnalRequestStream(
        pattern=DiurnalPattern(-6.0, base_rate=900.0, peak_rate=7600.0),
        region="us",
        hours=1,
        seed=0,
        rate_scale=0.1,
    )

    def replay():
        for arrival, request in stream:
            sent.append(weakref.ref(request))
            yield arrival, request

    return WorkloadSpec(
        name="streamed-diurnal",
        programs_by_region={},
        clients_per_region={},
        timed_requests_by_region={"us": replay()},
    )


def _assert_keeps_no_requests(result, sent):
    # What survives is O(1): the request the client drew past the horizon,
    # and the last one each balancer's serve loop handled.
    gc.collect()
    bound = len(result.balancers) + 1
    assert len(sent) > result.metrics.num_issued > bound
    assert sum(ref() is not None for ref in sent) <= bound


def test_streamed_open_loop_run_keeps_no_requests_yet_reports_latency():
    """A lazily streamed open-loop run keeps no request objects, yet its
    latency summaries cover every completion, from the tracker's columns."""
    sent = []
    result = _run_open_loop(_watched_stream_workload(sent), duration_s=120.0)
    metrics = result.metrics
    assert metrics.num_completed > 0
    assert metrics.ttft.count == metrics.e2e_latency.count == metrics.num_completed
    assert metrics.queueing_delay.count == metrics.num_completed
    assert 0 < metrics.ttft.p50 <= metrics.e2e_latency.p50
    _assert_keeps_no_requests(result, sent)


def test_faulted_streamed_run_puts_every_completion_in_one_phase():
    sent = []
    schedule = FaultSchedule.single(20.0, ReplicaCrash(region="us", index=0, duration_s=30.0))
    result = _run_open_loop(_watched_stream_workload(sent), duration_s=120.0, faults=schedule)
    resilience = result.metrics.resilience
    phases = (resilience.completed_before, resilience.completed_during, resilience.completed_after)
    assert all(type(count) is int for count in phases)
    assert sum(phases) == result.metrics.num_completed
    assert min(phases) > 0
    assert resilience.ttft_p90_during_s is not None
    _assert_keeps_no_requests(result, sent)


def test_open_loop_region_without_replicas_gets_its_own_balancer():
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker"),
        cluster=ClusterConfig(
            replicas_per_region={"us": 0, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
        ),
        duration_s=60.0,
    )
    result = run_experiment(config, _open_loop_workload(window_s=30.0))
    assert sorted(balancer.region for balancer in result.balancers) == ["asia", "eu", "us"]
    assert result.metrics.num_issued == result.metrics.num_completed > 0


@pytest.mark.xfail(
    strict=True,
    reason="FCFS admission keeps a prompt larger than the whole KV budget at the "
    "head of a replica's queue for the rest of the run",
)
def test_no_replica_ends_behind_a_prompt_larger_than_its_kv_budget():
    """Regression for the admission stall under the default ``MemoryConfig()``:
    us/replica-0 (a 2,000-token budget) takes a 2,386-token prompt, can
    never admit it, and stalls every request queued behind it, so the run
    completes only 34 requests."""
    workload = build_arena_workload(scale=0.03)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=tiny_cluster(profile=TINY_TEST_PROFILE),
        duration_s=20.0,
        seed=3,
    )
    result = run_experiment(config, workload)
    reserve = TINY_TEST_PROFILE.admission_output_reserve
    stuck = []
    for replica in result.deployment.replicas:
        batcher = replica.batcher
        if batcher.waiting:
            head = batcher.waiting[0].prompt_len
            if head + reserve > batcher.memory.capacity_tokens:
                stuck.append((replica.name, head))
    assert stuck == []
