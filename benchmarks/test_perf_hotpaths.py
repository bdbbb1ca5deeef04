"""Perf smoke: the hot-path microbenchmarks must not regress.

Runs the quick (CI-sized) ``repro.perf`` suite and compares every per-op
timing against the committed baseline in ``BENCH_hotpaths.json`` (the
``after_quick`` section, measured on the optimized implementations).  The
bound is deliberately loose — 3x — so it catches an accidental
reintroduction of a full-tree scan (a >10x cliff at these sizes) without
flaking on machine-speed differences between CI runners and the baseline
host.

Scaling *slopes* are machine-independent, so those are pinned tightly: the
per-eviction cost of both trees must stay sublinear in structure size.

The fresh quick run is also written to the git-ignored
``benchmarks/results/quick/`` so CI can upload it as an artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import run_suite

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_hotpaths.json"

#: Accidental-O(n^2) guard, not a noise detector.
REGRESSION_FACTOR = 3.0
#: A heap pop is ~O(log n); anything at or above ~sqrt growth means a scan
#: crept back into eviction.
MAX_EVICTION_SLOPE = 0.5


@pytest.fixture(scope="module")
def committed_report():
    return json.loads(REPORT_PATH.read_text())


@pytest.fixture(scope="module")
def fresh_quick(quick_results_dir):
    return run_suite(quick=True, out_path=str(quick_results_dir / "perf_quick.json"))


def _time_keys(row):
    return [k for k in row if k.endswith("_us") or "_us_" in k or k == "wall_s"]


def test_no_hotpath_regressed_over_committed_baseline(committed_report, fresh_quick):
    baseline = committed_report["after_quick"]["benchmarks"]
    current = fresh_quick["benchmarks"]
    offenders = []
    for name, base_row in baseline.items():
        cur_row = current.get(name)
        assert cur_row is not None, f"benchmark {name} disappeared from the suite"
        for key in _time_keys(base_row):
            base, cur = base_row[key], cur_row.get(key)
            assert cur is not None, f"{name}.{key} disappeared"
            if base > 0 and cur > REGRESSION_FACTOR * base:
                offenders.append(f"{name}.{key}: {cur:.2f} vs baseline {base:.2f}")
    assert not offenders, "hot-path regression(s) >%sx: %s" % (REGRESSION_FACTOR, offenders)


def test_eviction_scaling_stays_sublinear(fresh_quick):
    for name in ("trie_evict_scaling", "radix_evict_scaling"):
        slope = fresh_quick["benchmarks"][name]["loglog_slope"]
        assert slope < MAX_EVICTION_SLOPE, (
            f"{name} per-eviction cost grows ~n^{slope:.2f}; "
            "a full-tree scan has crept back into the eviction path"
        )


def test_committed_report_shows_the_claimed_wins(committed_report):
    """The committed before/after numbers must back the PR's claims:
    >=30% wall-clock off the Fig. 8 wildchat cell and >=2x fewer transient
    allocations on the prefix-routing lookup."""
    before = committed_report["before"]["benchmarks"]
    after = committed_report["after"]["benchmarks"]
    cell_before = before["fig8_wildchat_cell"]["wall_s"]
    cell_after = after["fig8_wildchat_cell"]["wall_s"]
    assert cell_after <= 0.7 * cell_before
    alloc_before = before["trie_best_target"]["alloc_peak_bytes_per_op"]
    alloc_after = after["trie_best_target"]["alloc_peak_bytes_per_op"]
    assert alloc_after * 2 <= alloc_before
    # And the committed "after" eviction scaling must already be sublinear.
    for name in ("trie_evict_scaling", "radix_evict_scaling"):
        assert after[name]["loglog_slope"] < MAX_EVICTION_SLOPE
