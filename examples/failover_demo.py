#!/usr/bin/env python3
"""Load-balancer failure recovery (§4.2 of the paper), the declarative way.

The centralized controller health-probes every regional load balancer.  When
one dies, its replicas are temporarily re-assigned to the geographically
closest healthy balancer, DNS stops resolving clients to the dead balancer,
and once it recovers the replicas are transferred back.

This example kills the EU balancer mid-run through the fault-injection
subsystem (``repro.faults``): the outage is one declarative
:class:`FaultSchedule`, the §4.2 controller is started automatically, and
the before/during/after story comes back as ``metrics.resilience`` -- the
same schedule object would drop into ``run_sweep(..., faults=...)`` or the
Fig. 11 benchmark unchanged.

Run with::

    python examples/failover_demo.py
"""

from __future__ import annotations

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    build_arena_workload,
    run_experiment,
)
from repro.faults import BalancerFailure, FaultSchedule


def main() -> None:
    workload = build_arena_workload(scale=0.1, seed=1)

    # One declarative scenario: the EU balancer dies 30 s in; the
    # controller (probing every 0.5 s) detects it, re-homes its replicas,
    # re-points DNS, and brings it back 20 s later.
    schedule = FaultSchedule.single(
        30.0,
        BalancerFailure(region="eu"),
        controller_probe_interval_s=0.5,
        recovery_time_s=20.0,
    )

    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=ClusterConfig(replicas_per_region={"us": 2, "eu": 2, "asia": 2}),
        duration_s=120.0,
        seed=0,
        network_jitter=0.0,
        faults=schedule,
    )
    result = run_experiment(config, workload)

    controller = result.controller
    print(f"failovers handled        : {len(controller.failovers)}")
    for record in controller.failovers:
        print(
            f"  {record.failed_balancer} -> {record.takeover_balancer} "
            f"at t={record.failed_at:.1f}s, recovered at t={record.recovered_at:.1f}s"
        )

    resilience = result.metrics.resilience
    start, end = resilience.outage_windows[0]
    # run_experiment drives the workload's own request objects, so each
    # finished one carries its routing record (ingress balancer, ...).
    eu_requests = [
        request
        for programs in workload.programs_by_region.values()
        for program in programs
        for request in program.all_requests()
        if request.finished and request.region == "eu"
    ]
    during_outage = [r for r in eu_requests if start <= r.sent_time <= end]
    served_by_us_lb = [r for r in during_outage if r.ingress_region == "us"]
    eu = next(b for b in result.balancers if b.region == "eu")

    print(f"outage window             : t={start:.1f}s .. t={end:.1f}s")
    print(f"time to recovery          : {resilience.mean_time_to_recovery_s:.1f}s")
    print(f"goodput during outage     : "
          f"{resilience.goodput_during_outage_tokens_per_s:.0f} tok/s")
    print(f"p90 TTFT before/during    : {resilience.ttft_p90_before_s:.3f}s / "
          f"{resilience.ttft_p90_during_s:.3f}s")
    print(f"EU requests completed     : {len(eu_requests)}")
    print(f"  ... sent during outage  : {len(during_outage)}")
    print(f"  ... entering via the US : {len(served_by_us_lb)}")
    print(f"EU balancer healthy again : {eu.healthy}")
    print(f"EU replicas back home     : {[r.name for r in eu.local_replicas()]}")


if __name__ == "__main__":
    main()
