"""Fig. 8 -- macro-benchmark: throughput, TTFT and end-to-end latency of every
system on every workload.

One test per workload column of Fig. 8.  Each runs the seven systems (GKE
Gateway, RR, LL, CH, SGLang Router, SkyWalker-CH, SkyWalker) on the same
scaled-down three-region cluster and prints the rows of the figure.  The
assertions check the paper's qualitative claims:

* SkyWalker's throughput is at least on par with (and usually above) every
  baseline on the chat workloads (paper: 1.12-2.06x),
* SkyWalker's median TTFT is the lowest or tied-lowest (paper: 1.74-6.30x
  lower latency), because requests enter through a local balancer and hit
  warm prefixes,
* prefix-aware systems reach much higher cache hit rates than RR/LL,
* on the uniform ToT workload consistent hashing is competitive (the paper
  even reports CH 2% ahead), while on Mixed Tree SkyWalker wins again.
"""

from __future__ import annotations

import pytest

from repro.experiments import ALL_SYSTEMS, default_macro_cluster, run_macro_benchmark
from repro.experiments.macro import speedup_over_baselines

from conftest import bench_duration, bench_scale, bench_seeds, bench_workers

WORKLOADS = ("chatbot-arena", "wildchat", "tree-of-thoughts", "mixed-tree")


def _render(result, workload) -> str:
    lines = [f"Fig. 8 ({workload}): throughput / TTFT / E2E latency", ""]
    lines.append(
        f"  {'system':<18}{'tput tok/s':>12}{'ttft p50':>10}{'ttft p90':>10}"
        f"{'e2e p50':>10}{'hit rate':>10}{'completed':>11}"
    )
    for system, metrics in result.runs[workload].items():
        lines.append(
            f"  {system:<18}{metrics.throughput_tokens_per_s:>12.1f}{metrics.ttft.p50:>10.3f}"
            f"{metrics.ttft.p90:>10.3f}{metrics.e2e_latency.p50:>10.2f}"
            f"{metrics.cache_hit_rate * 100:>9.1f}%{metrics.num_completed:>11}"
        )
    sky = result.runs[workload]["skywalker"]
    lines.append("")
    for system, speedup in speedup_over_baselines(result, workload).items():
        lines.append(f"  skywalker throughput vs {system:<18}: {speedup:5.2f}x")
    lines.append(f"  skywalker forwarded fraction: {sky.forwarded_fraction:.1%}")
    seeds = bench_seeds(0)
    if len(seeds) > 1:
        lines.append("")
        lines.append(f"  aggregate over seeds {seeds} (mean±95% CI):")
        for system in result.systems(workload):
            lines.append("  " + result.aggregate(workload, system).format_row())
    return "\n".join(lines)


def _run(workload):
    # Clients and replicas are scaled together so the per-replica load (and
    # thus the saturation regime of the paper's testbed) is preserved.  The
    # seven systems run as one process-parallel sweep; results are identical
    # to a serial run for the same seeds.  REPRO_BENCH_SEEDS > 1 repeats the
    # grid across seeds (the assertions below stay on the base seed).
    return run_macro_benchmark(
        systems=ALL_SYSTEMS,
        workloads=(workload,),
        scale=bench_scale(),
        duration_s=bench_duration(),
        cluster=default_macro_cluster(bench_scale()),
        seeds=bench_seeds(0),
        workers=bench_workers(),
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fig08_macro(workload, benchmark, record_result):
    result = benchmark.pedantic(lambda: _run(workload), rounds=1, iterations=1)
    record_result(f"fig08_{workload}", _render(result, workload))

    row = result.runs[workload]
    skywalker = row["skywalker"]
    baselines = {name: m for name, m in row.items() if not name.startswith("skywalker")}

    for metrics in row.values():
        assert metrics.num_completed > 0

    # --- throughput: SkyWalker at least on par with every baseline (within
    # noise), clearly ahead of the weakest one.
    weakest = min(m.throughput_tokens_per_s for m in baselines.values())
    assert skywalker.throughput_tokens_per_s > weakest
    for name, metrics in baselines.items():
        if workload == "tree-of-thoughts" and name == "consistent-hash":
            # The paper itself reports CH marginally (2%) ahead on uniform ToT.
            assert skywalker.throughput_tokens_per_s > 0.85 * metrics.throughput_tokens_per_s
        else:
            assert skywalker.throughput_tokens_per_s > 0.9 * metrics.throughput_tokens_per_s

    # --- latency: SkyWalker has the lowest (or tied lowest) median TTFT.
    best_baseline_ttft = min(m.ttft.p50 for m in baselines.values())
    assert skywalker.ttft.p50 <= best_baseline_ttft * 1.1

    # --- cache locality: prefix awareness pays off vs RR.
    assert skywalker.cache_hit_rate > row["round-robin"].cache_hit_rate

    # --- the two SkyWalker variants are close; the trie variant should not
    # lose badly to CH anywhere (paper: it wins by 1.34-8.21%).
    assert skywalker.throughput_tokens_per_s > 0.9 * row["skywalker-ch"].throughput_tokens_per_s
