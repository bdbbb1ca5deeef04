"""Fig. 14 -- WAN bandwidth contention: blind vs selective pushing.

The graph-routed network (``repro.net``) gives cross-region traffic a
shared, finite-bandwidth backbone: every pushed KV prefix occupies its
WAN edge for ``bytes / bandwidth`` seconds, FIFO behind whatever else is
in flight.  That turns push *volume* into end-to-end latency -- and push
volume is exactly where the pushing policies differ:

* **BP** ships the whole prompt's KV on every dispatch (a blind push
  cannot know what the target holds),
* **SP-O / SP-P** ship only the suffix beyond the target's known-resident
  prefix, so a session's repeat dispatches cost almost nothing on the
  wire.

The setup forces the traffic across the backbone: US has clients but
**zero replicas**, so every US request offloads to EU/Asia and its push
payload crosses a contended WAN edge.  The benchmark sweeps that edge's
bandwidth from 10 Gb/s down to 0.5 Gb/s.  At 10 Gb/s the three policies
are within noise of each other; as the pipe narrows, BP's full-prompt
pushes saturate it and BP's p90 TTFT collapses (queueing delay on the
edge), while the selective policies' small suffixes keep fitting and
their tails hold.  Per-seed paired differences (≥3 seeds, a fresh ToT
workload per seed) put a 95% CI on the headline gap.
"""

from __future__ import annotations

from repro.experiments import ClusterConfig, ExperimentConfig, SweepTask
from repro.experiments.sweep import SweepExecutor
from repro.experiments.systems import SkyWalkerConfig
from repro.experiments.workloads import build_tot_workload
from repro.net import NetConfig

from conftest import bench_duration, bench_scale, bench_seeds, bench_workers

SEED = 14
POLICIES = ("BP", "SP-O", "SP-P")
WORKLOAD = "tree-of-thoughts"

#: The swept cross-region bandwidths, label -> bytes/s.
BANDWIDTHS = {
    "10 Gb/s": 1.25e9,
    "2 Gb/s": 2.5e8,
    "1 Gb/s": 1.25e8,
    "0.5 Gb/s": 6.25e7,
}
#: The constrained point the headline assertions pin.
HEADLINE = "1 Gb/s"
#: High enough that outstanding-count capping never binds at this load;
#: SP-O's wire savings, not its admission limit, are what's under test.
SP_O_THRESHOLD = 48


def fig14_seeds() -> list:
    """At least three seeds: the paired CI needs real workload diversity."""
    seeds = bench_seeds(SEED)
    if len(seeds) < 3:
        seeds = [SEED + i for i in range(3)]
    return seeds


def _cluster(bandwidth: float) -> ClusterConfig:
    per_region = max(1, round(4 * bench_scale()))
    return ClusterConfig(
        # No US replicas: every US request offloads over the backbone.
        replicas_per_region={"us": 0, "eu": per_region, "asia": per_region},
        network=NetConfig(
            topology="backbone", wan_bandwidth_bytes_per_s=bandwidth
        ),
    )


def _sweep(bandwidth: float, seeds, duration: float):
    tasks = []
    for seed in seeds:
        workload = build_tot_workload(scale=bench_scale(), seed=seed)
        for policy in POLICIES:
            tasks.append(
                SweepTask(
                    config=ExperimentConfig(
                        system=SkyWalkerConfig(
                            kind="skywalker",
                            label=policy,
                            pushing=policy,
                            sp_o_threshold=SP_O_THRESHOLD,
                            hash_key="session",
                        ),
                        cluster=_cluster(bandwidth),
                        duration_s=duration,
                        seed=seed,
                    ),
                    workload=workload,
                )
            )
    return SweepExecutor(workers=bench_workers()).run_cells(tasks)


def _run():
    duration = bench_duration()
    seeds = fig14_seeds()
    sweeps = {label: _sweep(bw, seeds, duration) for label, bw in BANDWIDTHS.items()}
    return sweeps, duration, seeds


def _render(sweeps, duration, seeds) -> str:
    lines = [
        "Fig. 14: shared-link bandwidth contention -- blind vs selective "
        "pushing over a routed WAN backbone",
        "  (US clients, zero US replicas: every US request offloads to "
        "EU/Asia and its pushed KV",
        f"   crosses a contended backbone edge; {duration:.0f}s runs, "
        f"seeds {seeds}, mean±95% CI across seeds)",
        "",
        f"  {'backbone bw':<12}{'policy':<8}{'p90 ttft (s)':>16}"
        f"{'completed':>11}{'tput tok/s':>12}",
    ]
    for label in BANDWIDTHS:
        sweep = sweeps[label]
        for policy in POLICIES:
            stats = sweep.aggregate(WORKLOAD, policy).stats
            ttft = stats["ttft_p90"]
            done = stats["num_completed"]
            tput = stats["throughput_tokens_per_s"]
            lines.append(
                f"  {label:<12}{policy:<8}"
                f"{ttft.mean:>9.3f}±{ttft.ci95:<6.3f}"
                f"{done.mean:>11.0f}{tput.mean:>12.1f}"
            )
        lines.append("")
    lines.append("  p90 TTFT, BP - selective (paired per seed; positive = "
                 "selective wins):")
    for label in BANDWIDTHS:
        sweep = sweeps[label]
        for policy in ("SP-O", "SP-P"):
            diff = sweep.paired_diff(WORKLOAD, "BP", policy, metric="ttft_p90")
            lines.append(
                f"    {label:<12}BP - {policy:<6}{diff.mean:+9.3f}s ± {diff.ci95:.3f}"
            )
    return "\n".join(lines)


def test_fig14_contention(benchmark, record_result):
    sweeps, duration, seeds = benchmark.pedantic(_run, rounds=1, iterations=1)
    record_result("fig14_contention", _render(sweeps, duration, seeds))

    # Every cell completed work at every bandwidth -- the pipe narrows,
    # nothing deadlocks.
    for label, sweep in sweeps.items():
        for policy in POLICIES:
            assert sweep.get(WORKLOAD, policy).num_completed > 0, (label, policy)

    def p90(label, policy):
        return sweeps[label].aggregate(WORKLOAD, policy).stats["ttft_p90"].mean

    # --- the headline: BP's full-prompt pushes saturate the constrained
    # backbone and its p90 TTFT collapses; the selective policies' small
    # suffixes keep fitting and their tails hold.
    wide, tight = "10 Gb/s", HEADLINE
    assert p90(tight, "BP") > 4.0 * p90(wide, "BP"), (
        f"expected BP to collapse on the constrained backbone: "
        f"{p90(tight, 'BP'):.3f}s vs {p90(wide, 'BP'):.3f}s at 10 Gb/s"
    )
    for policy in ("SP-O", "SP-P"):
        assert p90(tight, policy) < 3.0 * p90(wide, policy), (
            f"expected {policy} to hold its tail on the constrained "
            f"backbone: {p90(tight, policy):.3f}s vs {p90(wide, policy):.3f}s"
        )
        # Per-seed paired difference: BP is worse on every seed pairing,
        # with a 95% CI that stays positive.
        diff = sweeps[tight].paired_diff(WORKLOAD, "BP", policy, metric="ttft_p90")
        assert diff.mean - diff.ci95 > 0, (
            f"BP - {policy} paired p90 TTFT at {tight}: "
            f"{diff.mean:+.3f}s ± {diff.ci95:.3f} does not exclude zero"
        )

    # --- at the widest pipe the three policies are within noise of each
    # other: contention, not the policy mechanics, drives the gap.
    assert p90(wide, "BP") < 2.0 * p90(wide, "SP-P")
