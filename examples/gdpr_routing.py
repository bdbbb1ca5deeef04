#!/usr/bin/env python3
"""GDPR-constrained cross-region routing (§4.1, §7 of the paper).

SkyWalker supports custom routing policies.  The canonical one is GDPR data
residency: requests originating in GDPR regions (the EU) must never be
offloaded outside GDPR scope, while non-GDPR traffic may still be offloaded
*into* EU regions whenever those have spare capacity.

This example overloads the EU region and shows that, with the GDPR
constraint enabled, EU traffic queues locally instead of spilling to the US
or Asia -- while the same scenario without the constraint does offload it.

Run with::

    python examples/gdpr_routing.py
"""

from __future__ import annotations

from repro.experiments import (
    ClusterConfig,
    ExperimentConfig,
    SkyWalkerConfig,
    WorkloadSpec,
    run_experiment,
)
from repro.replica import TINY_TEST_PROFILE
from repro.workloads import ConversationConfig, ConversationWorkload


def build_eu_heavy_workload(seed: int = 3) -> WorkloadSpec:
    """Most clients are in the EU; the US and Asia are nearly idle."""
    clients = {"eu": 12, "us": 2, "asia": 2}
    programs = {}
    for region, count in clients.items():
        config = ConversationConfig(
            regions=(region,),
            users_per_region=count,
            conversations_per_user=3,
            turns_range=(2, 4),
            seed=seed,
        )
        programs[region] = ConversationWorkload(config).generate_programs()
    return WorkloadSpec(
        name="eu-heavy",
        programs_by_region=programs,
        clients_per_region=clients,
        hash_key="user",
    )


def run(constraint):
    """Run the EU-heavy workload and return the EU requests it finished."""
    workload = build_eu_heavy_workload()
    # ``constraint`` is a registered routing-constraint name (None, "gdpr",
    # "continent", or anything added via repro.core.register_constraint).
    config = ExperimentConfig(
        system=SkyWalkerConfig(kind="skywalker", hash_key="user", constraint=constraint),
        # Small replicas so the EU region genuinely overflows.
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1},
            profile=TINY_TEST_PROFILE,
        ),
        duration_s=60.0,
        seed=3,
    )
    run_experiment(config, workload)
    # run_experiment drives the workload's own request objects, so each
    # finished one carries where it was served.
    return [
        request
        for program in workload.programs_by_region["eu"]
        for request in program.all_requests()
        if request.finished
    ]


def summarize(label, eu_requests):
    offloaded = [r for r in eu_requests if r.serving_region != "eu"]
    print(f"{label}")
    print(f"  EU requests completed      : {len(eu_requests)}")
    print(f"  EU requests served abroad  : {len(offloaded)}"
          f" ({len(offloaded) / max(1, len(eu_requests)):.0%})")
    regions = sorted({r.serving_region for r in offloaded})
    if regions:
        print(f"  regions that served EU data: {regions}")
    ttfts = sorted(r.ttft for r in eu_requests if r.ttft is not None)
    if ttfts:
        print(f"  EU median TTFT             : {ttfts[len(ttfts) // 2]:.2f}s")
    print()


def main() -> None:
    print("EU-heavy workload, cross-region offloading allowed vs GDPR-constrained\n")
    summarize("Without constraint (offloading allowed anywhere):", run(constraint=None))
    summarize("With GDPR constraint (EU data stays in GDPR scope):", run(constraint="gdpr"))
    print("Note: with the constraint the EU trades latency for compliance; "
          "non-EU traffic could still be offloaded INTO the EU.")


if __name__ == "__main__":
    main()
