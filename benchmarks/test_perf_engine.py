"""Perf smoke: the sim-core engine macrobench must not regress.

Re-runs the quick (CI-sized) engine benchmark — a shrunk streamed diurnal
cell through the real stack — and checks it against the committed
``BENCH_engine.json``:

* machine-independent *ratios* are pinned tightly: the traced-peak
  flatness across a doubled simulation window, and the day cell completing
  every request it issued;
* the quick streamed cells' deterministic counters (events processed,
  requests issued and completed, the day's throughput, cross-region
  share and TTFT percentiles) are pinned exactly;
* the day cell's wall-clock only gets the loose accidental-cliff bound
  (same policy as ``test_perf_hotpaths.py``): CI runners are slower and
  noisier than the baseline host, so a tight wall-clock pin would flake.

The fresh quick run is written to the git-ignored ``benchmarks/results/quick/``
so CI uploads it as an artifact alongside the hot-path report.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import run_engine_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_engine.json"

#: Accidental-cliff guard on absolute timings, not a noise detector.
REGRESSION_FACTOR = 3.0
#: Doubling the simulated window ~doubles the requests processed; the traced
#: peak must stay near-flat (in-flight population + saturated caches only).
MAX_ALLOC_FLATNESS = 1.5
#: The committed full day cell is the million-request claim.
MIN_DAY_REQUESTS = 1_000_000
#: Exact counters of the fresh quick streamed cells (rate 2.0 over 1 h on
#: 2 replicas per region; the flatness pair at rate 1.0 over 1 h and 2 h).
#: The monitors' same-instant cycle starts and peer-probe sends are one
#: tick per instant (547,270 events when each was a timer).
QUICK_DAY_EVENTS = 337_265
QUICK_DAY_REQUESTS = 18_903
QUICK_FLAT_REQUESTS_SHORT = 9_429
QUICK_FLAT_REQUESTS_LONG = 18_675
#: The quick day's service throughput and cross-region share, from the
#: run's own ``RunMetrics``: 9,855,059 served tokens over the 4,200 s run
#: (1 h plus the drain tail), and 3,093 of its requests served outside
#: their origin region.
QUICK_DAY_THROUGHPUT_TOKENS_PER_S = 9_855_059 / 4_200
QUICK_DAY_CROSS_REGION_FRACTION = 3_093 / QUICK_DAY_REQUESTS
#: The quick day's TTFT percentiles, from the tracker's per-completion
#: columns (a streamed run keeps no request objects).
QUICK_DAY_TTFT_P50_S = 0.07688149750720186
QUICK_DAY_TTFT_P90_S = 0.7048604396406513
QUICK_DAY_TTFT_P99_S = 2.720439204398953


@pytest.fixture(scope="module")
def committed_report():
    return json.loads(REPORT_PATH.read_text())


@pytest.fixture(scope="module")
def fresh_quick(quick_results_dir):
    return run_engine_bench(quick=True, out_path=str(quick_results_dir / "engine_quick.json"))


# ----------------------------------------------------------------------
# committed-report claims (no timing on this machine involved)
# ----------------------------------------------------------------------
def test_committed_day_cell_is_a_million_requests_and_lossless(committed_report):
    cell = committed_report["full"]["benchmarks"]["streamed_diurnal_cell"]
    assert cell["day_requests_issued"] >= MIN_DAY_REQUESTS
    assert cell["day_requests_completed"] == cell["day_requests_issued"]
    assert cell["day_outstanding"] == 0


def test_committed_flatness_ratio_is_flat(committed_report):
    cell = committed_report["full"]["benchmarks"]["streamed_diurnal_cell"]
    assert cell["flat_requests_long"] >= 1.8 * cell["flat_requests_short"]
    assert cell["alloc_flatness_ratio"] <= MAX_ALLOC_FLATNESS


# ----------------------------------------------------------------------
# fresh quick run on this machine
# ----------------------------------------------------------------------
def test_fresh_flatness_ratio_holds(fresh_quick):
    cell = fresh_quick["benchmarks"]["streamed_diurnal_cell"]
    assert cell["flat_requests_long"] >= 1.8 * cell["flat_requests_short"]
    assert cell["alloc_flatness_ratio"] <= MAX_ALLOC_FLATNESS, (
        f"traced peak grew {cell['alloc_flatness_ratio']:.2f}x across a "
        "doubled window: something retains O(requests) state"
    )


def test_fresh_quick_day_cell_is_lossless(fresh_quick):
    cell = fresh_quick["benchmarks"]["streamed_diurnal_cell"]
    assert cell["day_requests_completed"] == cell["day_requests_issued"] > 0
    assert cell["day_outstanding"] == 0


def test_fresh_quick_streamed_counters_are_pinned(fresh_quick):
    """Events, requests and served tokens are deterministic where timings
    are not, so the quick cells' counters are pinned exactly: a change that
    adds or removes events or requests fails here by name, not as a timing
    flake, and a streamed run that stops counting tokens, cross-region
    placements or first-token latencies fails here too."""
    cell = fresh_quick["benchmarks"]["streamed_diurnal_cell"]
    assert cell["day_events"] == QUICK_DAY_EVENTS
    assert cell["day_requests_issued"] == cell["day_requests_completed"] == QUICK_DAY_REQUESTS
    assert cell["flat_requests_short"] == QUICK_FLAT_REQUESTS_SHORT
    assert cell["flat_requests_long"] == QUICK_FLAT_REQUESTS_LONG
    assert cell["day_throughput_tokens_per_s"] == QUICK_DAY_THROUGHPUT_TOKENS_PER_S
    assert cell["day_cross_region_fraction"] == QUICK_DAY_CROSS_REGION_FRACTION
    assert cell["day_ttft_p50_s"] == QUICK_DAY_TTFT_P50_S
    assert cell["day_ttft_p90_s"] == QUICK_DAY_TTFT_P90_S
    assert cell["day_ttft_p99_s"] == QUICK_DAY_TTFT_P99_S


def test_no_engine_timing_regressed_over_committed_quick(committed_report, fresh_quick):
    """The quick day cell's wall-clock (stack assembly included) stays
    within the accidental-cliff bound of the committed quick run."""
    base = committed_report["quick"]["benchmarks"]["streamed_diurnal_cell"]["day_wall_s"]
    cur = fresh_quick["benchmarks"]["streamed_diurnal_cell"]["day_wall_s"]
    assert cur <= REGRESSION_FACTOR * base, (
        f"engine regression >{REGRESSION_FACTOR}x: quick day cell took "
        f"{cur:.1f}s vs baseline {base:.1f}s"
    )
