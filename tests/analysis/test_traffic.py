"""Unit tests for the traffic-aggregation analysis (Fig. 3a)."""

import pytest

from repro.analysis import analyze_aggregation
from repro.workloads import COUNTRY_PROFILES, RegionalTrace, generate_daily_trace


def test_analysis_of_synthetic_wildchat_trace():
    trace = generate_daily_trace(COUNTRY_PROFILES, seed=3)
    analysis = analyze_aggregation(trace)
    # Per-region swings are large (the paper reports 2.88x-32.64x) while the
    # aggregate is much flatter (1.29x in the paper).
    assert analysis.max_regional_variance > 3.0
    assert analysis.aggregated_peak_to_trough < min(analysis.per_region_peak_to_trough.values())
    assert 0.0 < analysis.peak_reduction_fraction < 1.0
    assert analysis.aggregated_peak <= analysis.sum_of_region_peaks


def test_antiphase_regions_maximise_peak_reduction():
    trace = RegionalTrace(
        hourly_counts={
            "day": [1000, 0, 1000, 0],
            "night": [0, 1000, 0, 1000],
        }
    )
    analysis = analyze_aggregation(trace)
    assert analysis.aggregated_peak == 1000
    assert analysis.sum_of_region_peaks == 2000
    assert analysis.peak_reduction_fraction == pytest.approx(0.5)


def test_perfectly_correlated_regions_offer_no_reduction():
    trace = RegionalTrace(
        hourly_counts={
            "a": [100, 500, 100],
            "b": [100, 500, 100],
        }
    )
    analysis = analyze_aggregation(trace)
    assert analysis.peak_reduction_fraction == pytest.approx(0.0)


def test_to_dict_contains_per_region_entries():
    trace = generate_daily_trace(COUNTRY_PROFILES, seed=1)
    data = analyze_aggregation(trace).to_dict()
    assert set(data["per_region_peaks"]) == set(COUNTRY_PROFILES)
    assert data["aggregated_peak"] > 0
