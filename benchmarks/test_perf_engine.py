"""Perf smoke: the sim-core engine macrobench must not regress.

Re-runs the quick (CI-sized) engine benchmarks — the timeline hold model,
the end-to-end engine step loop, and a shrunk streamed diurnal cell — and
checks them against the committed ``BENCH_engine.json``:

* machine-independent *ratios* are pinned tightly: the calendar/heap hold
  speedup (quick bound; the committed full run backs the >=2x headline at
  millions pending), the traced-peak flatness across a doubled simulation
  window, and the day cell completing every request it issued;
* absolute timings only get the loose accidental-cliff bound (same policy
  as ``test_perf_hotpaths.py``): CI runners are slower and noisier than
  the baseline host, so a tight wall-clock pin would flake.

The decision to pin the ``>=2x`` headline at scheduler-structure level (the
hold model) rather than end-to-end is deliberate and documented in
PERFORMANCE.md: Event allocation and callback dispatch are shared costs
that dilute any scheduler's win in the full engine loop.

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
#: The committed full hold run (millions pending) must back the headline.
FULL_MIN_HOLD_SPEEDUP = 2.0
#: Quick hold sizes (200k pending) show a smaller, noise-safe margin; the
#: measured quick speedup is ~1.6, so 1.2 catches "calendar stopped helping"
#: without flaking on runner jitter.
QUICK_MIN_HOLD_SPEEDUP = 1.2
#: Doubling the simulated window ~doubles the requests processed; the traced
#: peak must stay near-flat (in-flight population + saturated caches only).
MAX_ALLOC_FLATNESS = 1.5
#: The committed full day cell is the million-request claim.
MIN_DAY_REQUESTS = 1_000_000


@pytest.fixture(scope="module")
def committed_report():
    return json.loads(REPORT_PATH.read_text())


@pytest.fixture(scope="module")
def fresh_quick(quick_results_dir):
    return run_engine_bench(quick=True, out_path=str(quick_results_dir / "engine_quick.json"))


# ----------------------------------------------------------------------
# committed-report claims (no timing on this machine involved)
# ----------------------------------------------------------------------
def test_committed_full_hold_backs_the_2x_headline(committed_report):
    hold = committed_report["full"]["benchmarks"]["timeline_hold"]
    assert hold["speedup"] >= FULL_MIN_HOLD_SPEEDUP, (
        f"committed full hold-model speedup {hold['speedup']:.2f} no longer "
        f"backs the >={FULL_MIN_HOLD_SPEEDUP}x headline"
    )


def test_committed_day_cell_is_a_million_requests_and_lossless(committed_report):
    cell = committed_report["full"]["benchmarks"]["streamed_diurnal_cell"]
    assert cell["day_requests_issued"] >= MIN_DAY_REQUESTS
    assert cell["day_requests_completed"] == cell["day_requests_issued"]
    assert cell["day_outstanding"] == 0


def test_committed_flatness_ratio_is_flat(committed_report):
    cell = committed_report["full"]["benchmarks"]["streamed_diurnal_cell"]
    assert cell["flat_requests_long"] >= 1.8 * cell["flat_requests_short"]
    assert cell["alloc_flatness_ratio"] <= MAX_ALLOC_FLATNESS


def test_committed_engine_steps_prefer_calendar(committed_report):
    """End-to-end the win is diluted by shared event machinery, but the
    calendar must never be *slower* than the heap in the committed run."""
    steps = committed_report["full"]["benchmarks"]["engine_steps"]
    assert steps["speedup"] >= 1.0


# ----------------------------------------------------------------------
# fresh quick run on this machine
# ----------------------------------------------------------------------
def test_fresh_hold_speedup_holds(fresh_quick):
    hold = fresh_quick["benchmarks"]["timeline_hold"]
    assert hold["speedup"] >= QUICK_MIN_HOLD_SPEEDUP, (
        f"quick hold-model speedup {hold['speedup']:.2f} < "
        f"{QUICK_MIN_HOLD_SPEEDUP}: the calendar queue stopped beating the heap"
    )


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


def test_no_engine_timing_regressed_over_committed_quick(committed_report, fresh_quick):
    baseline = committed_report["quick"]["benchmarks"]
    current = fresh_quick["benchmarks"]
    offenders = []
    for name, base_row in baseline.items():
        cur_row = current.get(name)
        assert cur_row is not None, f"benchmark {name} disappeared from the suite"
        for key, base in base_row.items():
            if not (key.endswith("_ns_per_op") or key.endswith("_ns_per_event")):
                continue
            cur = cur_row.get(key)
            assert cur is not None, f"{name}.{key} disappeared"
            if base > 0 and cur > REGRESSION_FACTOR * base:
                offenders.append(f"{name}.{key}: {cur:.0f}ns vs baseline {base:.0f}ns")
    assert not offenders, "engine regression(s) >%sx: %s" % (REGRESSION_FACTOR, offenders)
