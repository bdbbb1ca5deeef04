"""Fig. 9 -- blind pushing vs selective pushing (SP-O, SP-P), single region.

The paper reports SP-P improving throughput by 1.27x over blind pushing and
1.4x over SP-O, and cutting P90 TTFT by 18.47x vs blind pushing.
"""

from __future__ import annotations

from repro.experiments import run_pushing_benchmark
from repro.experiments.pushing import p90_ttft_reduction, throughput_gain

from conftest import bench_duration, bench_scale, bench_seeds, bench_workers


def test_fig09_selective_pushing(benchmark, record_result):
    # The paper's 30 clients saturate four real L4 replicas; our simulated
    # clients spend more of their time waiting on stage synchronisation, so
    # we use twice as many to land in the same "replicas kept at high
    # utilisation" regime (§5.2).  Scaling below 0.25 shrinks this again.
    clients = max(12, int(round(60 * min(1.0, bench_scale() / 0.5))))
    result = benchmark.pedantic(
        lambda: run_pushing_benchmark(
            replicas=4,
            clients=clients,
            duration_s=bench_duration(),
            sp_o_threshold=24,
            seeds=bench_seeds(7),
            workers=min(bench_workers(), 3),
        ),
        rounds=1,
        iterations=1,
    )

    lines = ["Fig. 9: pushing policy comparison (single region, ToT-2)", ""]
    lines.append(
        f"  {'policy':<8}{'tput tok/s':>12}{'ttft p50':>10}{'ttft p90':>10}{'e2e p50':>10}"
        f"{'hit rate':>10}{'completed':>11}"
    )
    (workload,) = result.workloads()
    runs = result.runs[workload]
    for policy, metrics in runs.items():
        lines.append(
            f"  {policy:<8}{metrics.throughput_tokens_per_s:>12.1f}{metrics.ttft.p50:>10.3f}"
            f"{metrics.ttft.p90:>10.3f}{metrics.e2e_latency.p50:>10.2f}"
            f"{metrics.cache_hit_rate * 100:>9.1f}%{metrics.num_completed:>11}"
        )
    lines.append("")
    lines.append(f"  SP-P throughput vs BP  : {throughput_gain(result, 'BP', 'SP-P'):.2f}x   (paper: 1.27x)")
    lines.append(f"  SP-P throughput vs SP-O: {throughput_gain(result, 'SP-O', 'SP-P'):.2f}x   (paper: 1.4x)")
    lines.append(f"  SP-P p90 TTFT reduction vs BP: {p90_ttft_reduction(result, 'BP', 'SP-P'):.2f}x   (paper: 18.47x)")
    seeds = bench_seeds(7)
    if len(seeds) > 1:
        lines.append("")
        lines.append(f"  aggregate over seeds {seeds} (mean±95% CI):")
        for policy in runs:
            lines.append("  " + result.aggregate(workload, policy).format_row())
    record_result("fig09_selective_pushing", "\n".join(lines))

    bp, spo, spp = runs["BP"], runs["SP-O"], runs["SP-P"]
    # SP-P never loses meaningfully to blind pushing on throughput or tail
    # latency.  (In this reproduction the balancer's load-aware candidate
    # selection already prevents most of the imbalance blind pushing causes
    # on the real testbed, so the BP gap is muted -- see EXPERIMENTS.md.)
    assert spp.throughput_tokens_per_s >= 0.95 * bp.throughput_tokens_per_s
    assert spp.ttft.p90 <= bp.ttft.p90 * 1.15
    # The fixed-outstanding threshold (SP-O) clearly underperforms SP-P: the
    # paper reports 1.4x, and a mis-set threshold also wrecks tail latency.
    assert spp.throughput_tokens_per_s >= 1.15 * spo.throughput_tokens_per_s
    assert spp.ttft.p90 <= spo.ttft.p90
