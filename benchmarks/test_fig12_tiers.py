"""Fig. 12 (extension) -- KV tier-size sweep: what HBM fraction and host-RAM
tier size do to prefix locality and TTFT.

The paper's evaluation fixes the KV budget per replica; this figure asks the
memory-subsystem question behind it: as HBM shrinks (bigger models, longer
contexts), how much of the lost prefix locality can a host-RAM offload tier
buy back, and what do the promotion copies cost in first-token latency?

Grid: ``hbm_fraction`` x ``host_capacity_tokens`` on the Fig. 8 Chatbot
Arena workload, all cells running the full SkyWalker system.  A second
section prices selective pushing's transfer volume: BP ships every pushed
prefix in full, SP-O ships only the tokens the target replica does not
already hold, so its byte volume (and modelled transfer time) must scale
down with the replica-trie overlap.

Assertions (qualitative, like every figure here):

* hit rate and p90 TTFT actually move across the grid (>= 3 distinct cells),
* at reduced HBM, adding a host tier recovers hit rate (combined > HBM-only)
  and its promotions are the reason (tier hits > 0, demotions > 0),
* BP pushes strictly more bytes than SP-O, and each system's modelled push
  time equals its byte volume over the configured bandwidth.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import (
    REGISTRY,
    ExperimentConfig,
    SweepExecutor,
    SweepTask,
    build_arena_workload,
    default_macro_cluster,
    run_sweep_task,
)
from repro.mem import MemoryConfig

from conftest import bench_duration, bench_scale, bench_seeds, bench_workers

HBM_FRACTIONS = (0.4, 0.7, 1.0)
HOST_TOKENS = (0, 131_072)  # 0 and 16 GB of host RAM at 128 KiB/token
PUSH_BANDWIDTH = 10e9  # 10 GB/s cross-replica KV transfer


def _memory(hbm_fraction: float, host_tokens: int):
    if hbm_fraction == 1.0 and host_tokens == 0:
        return None  # the legacy flat model; the grid's reference corner
    return MemoryConfig(
        page_size=16,
        hbm_fraction=hbm_fraction,
        host_capacity_tokens=host_tokens,
        offload="lru-demote",
    )


def _run_grid():
    workload = build_arena_workload(scale=bench_scale(), seed=0)
    seed = bench_seeds(0)[0]
    cells = [
        (hbm, host) for hbm in HBM_FRACTIONS for host in HOST_TOKENS
    ]
    tasks = []
    for hbm, host in cells:
        cluster = dataclasses.replace(
            default_macro_cluster(bench_scale()), memory=_memory(hbm, host)
        )
        tasks.append(
            SweepTask(
                config=ExperimentConfig(
                    system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
                    cluster=cluster,
                    duration_s=bench_duration(),
                    seed=seed,
                ),
                workload=workload,
            )
        )
    results = SweepExecutor(workers=bench_workers()).map(run_sweep_task, tasks)
    return dict(zip(cells, results))


def _run_push_costs():
    workload = build_arena_workload(scale=bench_scale(), seed=0)
    cluster = dataclasses.replace(
        default_macro_cluster(bench_scale()),
        memory=MemoryConfig(push_bandwidth_bytes_per_s=PUSH_BANDWIDTH),
    )
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                system=REGISTRY.spec(
                    "skywalker", hash_key=workload.hash_key, pushing=pushing
                ),
                cluster=cluster,
                duration_s=bench_duration(),
                seed=bench_seeds(0)[0],
            ),
            workload=workload,
        )
        for pushing in ("BP", "SP-O")
    ]
    results = SweepExecutor(workers=bench_workers()).map(run_sweep_task, tasks)
    return dict(zip(("BP", "SP-O"), results))


def _combined_hit_rate(metrics) -> float:
    if metrics.memory is not None:
        return metrics.memory.combined_hit_rate
    return metrics.cache_hit_rate


def _render(grid, push) -> str:
    lines = [
        "Fig. 12: KV tier sweep (skywalker, chatbot-arena)",
        "",
        f"  {'hbm':>5} {'host tok':>9} {'hbm hit':>8} {'tier hit':>9} "
        f"{'combined':>9} {'ttft p90':>9} {'promo GB':>9} {'stall s':>8} {'done':>6}",
    ]
    for (hbm, host), metrics in grid.items():
        mem = metrics.memory
        tier_hit = mem.tier_hit_rate if mem is not None else 0.0
        hbm_hit = mem.hbm_hit_rate if mem is not None else metrics.cache_hit_rate
        promo_gb = mem.promotion_bytes / 1e9 if mem is not None else 0.0
        stall = mem.promotion_stall_s if mem is not None else 0.0
        lines.append(
            f"  {hbm:>5.2f} {host:>9} {hbm_hit * 100:>7.1f}% {tier_hit * 100:>8.1f}% "
            f"{_combined_hit_rate(metrics) * 100:>8.1f}% {metrics.ttft.p90:>9.3f} "
            f"{promo_gb:>9.2f} {stall:>8.2f} {metrics.num_completed:>6}"
        )
    lines.append("")
    lines.append("  pushed-prefix transfer volume (push bandwidth 10 GB/s):")
    for name, metrics in push.items():
        mem = metrics.memory
        lines.append(
            f"  {name:<5} pushed={mem.pushed_prefix_tokens:>9} tok "
            f"({mem.pushed_prefix_bytes / 1e9:6.2f} GB)  "
            f"transfer={mem.push_transfer_s:7.3f}s  "
            f"ttft p90={metrics.ttft.p90:.3f}"
        )
    return "\n".join(lines)


def test_fig12_tier_sweep(benchmark, record_result):
    grid, push = benchmark.pedantic(
        lambda: (_run_grid(), _run_push_costs()), rounds=1, iterations=1
    )
    record_result("fig12_tiers", _render(grid, push))

    for metrics in grid.values():
        assert metrics.num_completed > 0

    # --- the knobs actually move the figure's two y-axes.
    hit_rates = {round(_combined_hit_rate(m), 6) for m in grid.values()}
    ttfts = {round(m.ttft.p90, 6) for m in grid.values()}
    assert len(hit_rates) >= 3
    assert len(ttfts) >= 3

    # --- shrinking HBM alone costs prefix locality...
    full = grid[(1.0, 0)]
    starved = grid[(0.4, 0)]
    assert _combined_hit_rate(starved) < _combined_hit_rate(full)
    assert starved.memory is not None and full.memory is None

    # --- ...and a host tier buys some of it back, via real promotions.
    recovered = grid[(0.4, HOST_TOKENS[1])]
    assert recovered.memory.tier_hit_rate > 0
    assert recovered.memory.demoted_tokens > 0
    assert recovered.memory.promotion_stall_s > 0
    assert (
        recovered.memory.combined_hit_rate
        > starved.memory.combined_hit_rate
    )

    # --- push-cost section: SP-O ships strictly less KV than BP, and the
    # modelled transfer time is exactly size / bandwidth for both.
    bp, sp_o = push["BP"].memory, push["SP-O"].memory
    assert bp.pushed_prefix_tokens > 0 and sp_o.pushed_prefix_tokens > 0
    assert sp_o.pushed_prefix_bytes < bp.pushed_prefix_bytes
    for mem in (bp, sp_o):
        assert mem.push_transfer_s == pytest.approx(
            mem.pushed_prefix_bytes / PUSH_BANDWIDTH
        )
    assert sp_o.push_transfer_s < bp.push_transfer_s
