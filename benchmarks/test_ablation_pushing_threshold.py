"""Ablation -- sensitivity of SP-O to its fixed outstanding-request threshold.

The paper argues that no fixed threshold works across request mixes (the
sustainable batch size on an L4 ranges from ~20 to ~50 requests).  This
ablation sweeps the SP-O threshold and contrasts it with SP-P, which needs
no threshold at all.
"""

from __future__ import annotations

from repro.experiments import run_pushing_benchmark

from conftest import bench_duration, bench_scale, bench_workers


def test_ablation_sp_o_threshold_sensitivity(benchmark, record_result):
    clients = max(8, int(30 * max(bench_scale(), 0.25)))

    def run():
        results = {}
        for threshold in (4, 16, 48):
            outcome = run_pushing_benchmark(
                policies=("SP-O",),
                replicas=4,
                clients=clients,
                duration_s=bench_duration(),
                sp_o_threshold=threshold,
                seeds=[9],
            )
            results[f"SP-O@{threshold}"] = outcome.get("tot-single-region", "SP-O")
        spp = run_pushing_benchmark(
            policies=("SP-P",),
            replicas=4,
            clients=clients,
            duration_s=bench_duration(),
            seeds=[9],
        )
        results["SP-P"] = spp.get("tot-single-region", "SP-P")
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation: SP-O threshold sweep vs SP-P", ""]
    lines.append(f"  {'variant':<10}{'tput tok/s':>12}{'ttft p90':>10}{'completed':>11}")
    for name, metrics in results.items():
        lines.append(
            f"  {name:<10}{metrics.throughput_tokens_per_s:>12.1f}"
            f"{metrics.ttft.p90:>10.3f}{metrics.num_completed:>11}"
        )
    spp = results["SP-P"]
    best_spo = max(
        (m for n, m in results.items() if n.startswith("SP-O")),
        key=lambda m: m.throughput_tokens_per_s,
    )
    lines.append("")
    lines.append(
        f"  SP-P reaches {spp.throughput_tokens_per_s / best_spo.throughput_tokens_per_s:.2f}x "
        "the best fixed-threshold throughput without any tuning"
    )
    record_result("ablation_spo_threshold", "\n".join(lines))

    for metrics in results.values():
        assert metrics.num_completed > 0
    # SP-P is competitive with the *best* hand-tuned threshold.
    assert spp.throughput_tokens_per_s >= 0.9 * best_spo.throughput_tokens_per_s


def test_ablation_probe_interval(benchmark, record_result):
    """Ablation -- probe interval (the paper fixes it at 100 ms)."""
    from repro.experiments import (
        ClusterConfig,
        SkyWalkerConfig,
        build_arena_workload,
        run_sweep,
    )

    def run():
        workload = build_arena_workload(scale=max(bench_scale() * 0.6, 0.08), seed=3)
        systems = [
            SkyWalkerConfig(kind="skywalker", probe_interval_s=interval,
                            hash_key=workload.hash_key, label=f"probe-{int(interval*1000)}ms")
            for interval in (0.05, 0.1, 0.4)
        ]
        sweep = run_sweep(
            systems,
            [workload],
            cluster=ClusterConfig(replicas_per_region={"us": 2, "eu": 2, "asia": 2}),
            duration_s=bench_duration(),
            seeds=[3],
            workers=min(bench_workers(), 3),
        )
        return {
            system.label.removeprefix("probe-"): sweep.get(workload.name, system.name)
            for system in systems
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation: availability probe interval", ""]
    lines.append(f"  {'interval':<10}{'tput tok/s':>12}{'ttft p50':>10}{'ttft p90':>10}")
    for name, metrics in results.items():
        lines.append(
            f"  {name:<10}{metrics.throughput_tokens_per_s:>12.1f}"
            f"{metrics.ttft.p50:>10.3f}{metrics.ttft.p90:>10.3f}"
        )
    record_result("ablation_probe_interval", "\n".join(lines))

    for metrics in results.values():
        assert metrics.num_completed > 0
    # A 100 ms probe interval should not be meaningfully worse than 50 ms.
    assert results["100ms"].throughput_tokens_per_s >= 0.85 * results["50ms"].throughput_tokens_per_s
