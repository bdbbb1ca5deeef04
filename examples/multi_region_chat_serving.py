#!/usr/bin/env python3
"""Compare SkyWalker against baseline load balancers on a WildChat-like
multi-region chat workload (the Fig. 8 experiment, scaled down).

Runs the same workload through a centralized Round-Robin balancer, the
SGLang-style cache-aware router, a GKE-like multi-cluster gateway and both
SkyWalker variants -- one sweep, one worker process per variant -- then
prints the comparison table.

Run with::

    python examples/multi_region_chat_serving.py [--scale 0.2] [--duration 120] [--workers 4]
"""

from __future__ import annotations

import argparse

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    build_wildchat_workload,
    run_sweep,
)

SYSTEMS = ("round-robin", "least-load", "sglang-router", "gke-gateway", "skywalker-ch", "skywalker")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2,
                        help="client-count scale factor (1.0 = paper scale)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds per system")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the sweep (1 = serial; "
                             "results are identical either way)")
    args = parser.parse_args()

    cluster = ClusterConfig(replicas_per_region={"us": 2, "eu": 2, "asia": 2})
    workload = build_wildchat_workload(scale=args.scale, seed=1)
    sweep = run_sweep(
        [REGISTRY.spec(kind, hash_key=workload.hash_key) for kind in SYSTEMS],
        [workload],
        cluster=cluster,
        duration_s=args.duration,
        seeds=[1],
        workers=args.workers,
    )

    print(f"{'system':<16}{'tput tok/s':>12}{'ttft p50':>10}{'ttft p90':>10}"
          f"{'e2e p50':>10}{'hit rate':>10}{'offloaded':>11}")
    rows = {}
    for kind in SYSTEMS:
        metrics = sweep.get(workload.name, kind)
        rows[kind] = metrics
        print(f"{kind:<16}{metrics.throughput_tokens_per_s:>12.1f}{metrics.ttft.p50:>10.3f}"
              f"{metrics.ttft.p90:>10.3f}{metrics.e2e_latency.p50:>10.2f}"
              f"{metrics.cache_hit_rate * 100:>9.1f}%{metrics.cross_region_fraction * 100:>10.1f}%")

    skywalker = rows["skywalker"]
    print("\nSkyWalker vs baselines (throughput / median TTFT):")
    for kind, metrics in rows.items():
        if kind == "skywalker":
            continue
        tput_gain = skywalker.throughput_tokens_per_s / max(metrics.throughput_tokens_per_s, 1e-9)
        ttft_gain = metrics.ttft.p50 / max(skywalker.ttft.p50, 1e-9)
        print(f"  vs {kind:<16} throughput {tput_gain:5.2f}x   TTFT {ttft_gain:5.2f}x lower")


if __name__ == "__main__":
    main()
