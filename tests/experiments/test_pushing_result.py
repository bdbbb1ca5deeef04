"""Unit tests for the figure ratio functions over a :class:`SweepResult`.

Regression: a zero baseline (a run that completed nothing) used to yield
``float("inf")``, which silently poisoned downstream report formatting.
Empty runs must instead fail loudly, naming the offending run -- in every
figure's ratio, since they all go through ``metric_ratio``.
"""

import pytest

from repro.experiments import SweepResult
from repro.experiments.diurnal_sweep import speedup_at
from repro.experiments.macro import speedup_over_baselines
from repro.experiments.pushing import p90_ttft_reduction, throughput_gain
from repro.metrics import LatencySummary, RunMetrics


def make_metrics(
    system: str, *, throughput: float, ttft_p90: float, workload: str = "tot-single-region"
) -> RunMetrics:
    ttft_values = [ttft_p90] if ttft_p90 > 0 else []
    return RunMetrics(
        system=system,
        workload=workload,
        duration_s=10.0,
        num_completed=1 if throughput > 0 else 0,
        num_issued=1,
        throughput_tokens_per_s=throughput,
        output_tokens_per_s=throughput / 2,
        requests_per_s=0.1,
        ttft=LatencySummary.from_values(ttft_values),
        e2e_latency=LatencySummary.from_values(ttft_values),
        queueing_delay=LatencySummary.from_values([]),
        cache_hit_rate=0.0,
        cross_region_fraction=0.0,
        forwarded_fraction=0.0,
        replica_load_imbalance=1.0,
        seed=0,
    )


def sweep_of(*runs: RunMetrics) -> SweepResult:
    result = SweepResult()
    for metrics in runs:
        result.add(metrics)
    return result


def test_gains_computed_for_non_empty_runs():
    result = sweep_of(
        make_metrics("BP", throughput=100.0, ttft_p90=2.0),
        make_metrics("SP-P", throughput=150.0, ttft_p90=0.5),
    )
    assert throughput_gain(result, "BP", "SP-P") == pytest.approx(1.5)
    assert p90_ttft_reduction(result, "BP", "SP-P") == pytest.approx(4.0)


def test_zero_throughput_baseline_raises_naming_the_run():
    result = sweep_of(
        make_metrics("BP", throughput=0.0, ttft_p90=0.0),
        make_metrics("SP-P", throughput=150.0, ttft_p90=0.5),
    )
    with pytest.raises(ValueError, match="'BP'"):
        throughput_gain(result, "BP", "SP-P")


def test_zero_ttft_target_raises_naming_the_run():
    result = sweep_of(
        make_metrics("BP", throughput=100.0, ttft_p90=2.0),
        make_metrics("SP-P", throughput=0.0, ttft_p90=0.0),
    )
    with pytest.raises(ValueError, match="'SP-P'"):
        p90_ttft_reduction(result, "BP", "SP-P")


def test_zero_baseline_raises_in_fig08_speedups():
    # An empty baseline raises instead of dropping out of the speedup table.
    result = sweep_of(
        make_metrics("skywalker", throughput=150.0, ttft_p90=0.5, workload="wildchat"),
        make_metrics("round-robin", throughput=0.0, ttft_p90=0.0, workload="wildchat"),
    )
    with pytest.raises(ValueError, match="'round-robin'"):
        speedup_over_baselines(result, "wildchat")


def test_zero_region_local_baseline_raises_in_fig10_speedup():
    # A zero-throughput region-local run raises instead of giving inf.
    workload = "regionally-skewed@9"
    result = sweep_of(
        make_metrics("skywalker", throughput=150.0, ttft_p90=0.5, workload=workload),
        make_metrics("region-local", throughput=0.0, ttft_p90=0.0, workload=workload),
    )
    with pytest.raises(ValueError, match="'region-local' on 'regionally-skewed@9'"):
        speedup_at(result, 9)
    result = sweep_of(
        make_metrics("skywalker", throughput=150.0, ttft_p90=0.5, workload=workload),
        make_metrics("region-local", throughput=100.0, ttft_p90=2.0, workload=workload),
    )
    assert speedup_at(result, 9) == pytest.approx(1.5)
