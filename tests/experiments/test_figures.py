"""Integration tests for the figure-specific experiment harnesses.

These run heavily scaled-down versions of the paper's experiments and check
the *qualitative* shape of the results (who wins, which direction a gap
points).  The full-scale numbers are produced by the benchmark harness in
``benchmarks/``.
"""

import pytest

from repro.experiments import (
    HITRATE_SCENARIOS,
    build_scenario,
    evaluate_hit_rates,
    run_hitrate_benchmark,
    run_imbalance_experiment,
    run_macro_benchmark,
    run_pushing_benchmark,
)
from repro.experiments.macro import speedup_over_baselines
from repro.experiments.pushing import throughput_gain


# ----------------------------------------------------------------------
# Fig. 6: CH vs optimal hit rate
# ----------------------------------------------------------------------
def test_scenarios_are_constructible_and_sized():
    for name in HITRATE_SCENARIOS:
        scenario = build_scenario(name, seed=1)
        assert scenario.num_requests > 100
        assert scenario.batches


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        build_scenario("unknown-scenario")


def test_optimal_router_beats_consistent_hashing_overall():
    comparison = run_hitrate_benchmark(seed=3)
    for name in HITRATE_SCENARIOS:
        row = comparison.results[name]
        assert 0.0 < row["consistent-hashing"] < 1.0
        # The global-view router never loses by more than noise in any
        # scenario (greedy placement can occasionally trail by a hair).
        assert row["optimal"] >= row["consistent-hashing"] - 0.02
    # And at least one scenario shows the clearly visible gap of Fig. 6.
    gaps = [comparison.gap(name) for name in HITRATE_SCENARIOS]
    assert max(gaps) > 0.03
    assert sum(1 for gap in gaps if gap > 0) >= 2


def test_cross_user_sharing_scenario_shows_the_largest_structure():
    scenario = build_scenario("cross-user-sharing", seed=0)
    rates = evaluate_hit_rates(scenario, num_replicas=4)
    assert rates["optimal"] > 0.5  # heavy template sharing is exploitable


# ----------------------------------------------------------------------
# Fig. 4b: round-robin memory imbalance
# ----------------------------------------------------------------------
def test_round_robin_produces_memory_imbalance():
    result = run_imbalance_experiment(clients=6, replicas=2, duration_s=40.0, seed=2)
    assert len(result.timelines) == 2
    assert all(samples for samples in result.timelines.values())
    assert result.peak_ratio >= 1.0
    assert all(0.0 <= peak <= 1.0 for peak in result.peak_utilization.values())


# ----------------------------------------------------------------------
# Fig. 9: pushing-policy comparison (scaled down)
# ----------------------------------------------------------------------
def test_pushing_benchmark_runs_all_three_policies():
    result = run_pushing_benchmark(replicas=2, clients=6, duration_s=40.0, seeds=[4])
    runs = result.runs["tot-single-region"]
    assert set(runs) == {"BP", "SP-O", "SP-P"}
    for metrics in runs.values():
        assert metrics.num_completed > 0
    # Selective pushing by pending requests must not lose to blind pushing on
    # tail TTFT (the paper reports an 18x improvement at full scale).
    assert runs["SP-P"].ttft.p90 <= runs["BP"].ttft.p90 * 1.2
    assert throughput_gain(result, over="BP", policy="SP-P") > 0.8


# ----------------------------------------------------------------------
# Fig. 8: macro benchmark plumbing (tiny sweep)
# ----------------------------------------------------------------------
def test_macro_benchmark_sweep_structure():
    result = run_macro_benchmark(
        systems=("round-robin", "skywalker"),
        workloads=("chatbot-arena",),
        scale=0.03,
        duration_s=30.0,
    )
    assert result.workloads() == ["chatbot-arena"]
    assert set(result.systems("chatbot-arena")) == {"round-robin", "skywalker"}
    assert result.get("chatbot-arena", "skywalker").throughput_tokens_per_s > 0
    speedups = speedup_over_baselines(result, "chatbot-arena", system="skywalker")
    assert "round-robin" in speedups
    report = result.report().format_table()
    assert "chatbot-arena" in report and "skywalker" in report
