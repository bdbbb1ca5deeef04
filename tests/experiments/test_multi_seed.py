"""Multi-seed sweeps: bit-identity guarantees and aggregation plumbing.

Three contracts under test:

* ``seeds=[s]`` is **bit-identical** to the legacy single-seed ``seed=s``
  path (the golden traces and committed artifacts depend on it),
* serial and ``workers=2`` multi-seed sweeps are bit-identical per seed,
* the per-seed runs and mean/95%-CI aggregates are populated everywhere
  the API promises them (``run_sweep``, macro, pushing, diurnal).
"""

import pytest

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    build_arena_workload,
    normalise_seeds,
    run_diurnal_sweep,
    run_macro_benchmark,
    run_pushing_benchmark,
    run_sweep,
)
from repro.experiments.diurnal_sweep import fleet_runs, replicas_meeting_slo
from repro.experiments.pushing import throughput_gain
from repro.replica import TINY_TEST_PROFILE


def tiny_cluster():
    return ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
    )


# ----------------------------------------------------------------------
# seed-list normalisation
# ----------------------------------------------------------------------
def test_normalise_seeds_contract():
    assert normalise_seeds(7, None) == [7]
    assert normalise_seeds(7, [1, 2, 3]) == [1, 2, 3]
    with pytest.raises(ValueError, match="non-empty"):
        normalise_seeds(7, [])
    with pytest.raises(ValueError, match="duplicates"):
        normalise_seeds(7, [1, 1, 2])


# ----------------------------------------------------------------------
# seeds=[s] ≡ legacy seed=s, bit for bit
# ----------------------------------------------------------------------
def test_single_entry_seeds_is_bit_identical_to_legacy_seed():
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("least-load")]
    workload = build_arena_workload(scale=0.03, seed=1)
    kwargs = dict(cluster=tiny_cluster(), duration_s=15.0)
    legacy = run_sweep(systems, [workload], seed=3, **kwargs)
    seeded = run_sweep(systems, [workload], seeds=[3], **kwargs)
    for system in legacy.systems(workload.name):
        reference = legacy.get(workload.name, system)
        assert reference.num_completed > 0
        assert seeded.get(workload.name, system).to_dict() == reference.to_dict()
        # The seeds=[3] run also exposes itself under its seed key...
        assert seeded.get(workload.name, system, seed=3).to_dict() == reference.to_dict()
    # ...and the seed stamp stays out of the identity payload.
    stamped = seeded.get(workload.name, "skywalker")
    assert stamped.seed == 3
    assert "seed" not in stamped.to_dict()


# ----------------------------------------------------------------------
# multi-seed: serial ≡ workers=2, per seed
# ----------------------------------------------------------------------
def test_multi_seed_parallel_is_bit_identical_to_serial():
    systems = [REGISTRY.spec("skywalker"), REGISTRY.spec("consistent-hash")]
    workload = build_arena_workload(scale=0.03, seed=1)
    kwargs = dict(cluster=tiny_cluster(), duration_s=15.0, seeds=[1, 2])
    serial = run_sweep(systems, [workload], workers=1, **kwargs)
    parallel = run_sweep(systems, [workload], workers=2, **kwargs)
    assert serial.seeds() == parallel.seeds() == [1, 2]
    for system in serial.systems(workload.name):
        for seed in (1, 2):
            a = serial.get(workload.name, system, seed=seed)
            b = parallel.get(workload.name, system, seed=seed)
            assert a.num_completed > 0
            assert a.to_dict() == b.to_dict(), (system, seed)
        # The base view is the first listed seed in both modes.
        assert (
            serial.get(workload.name, system).to_dict()
            == serial.get(workload.name, system, seed=1).to_dict()
        )


def test_multi_seed_aggregate_and_reports_populated():
    workload = build_arena_workload(scale=0.03, seed=1)
    sweep = run_sweep(
        [REGISTRY.spec("skywalker"), REGISTRY.spec("least-load")],
        [workload],
        cluster=tiny_cluster(),
        duration_s=15.0,
        seeds=[1, 2, 3],
    )
    for system in sweep.systems(workload.name):
        per_seed = sweep.runs_for(workload.name, system)
        assert list(per_seed) == [1, 2, 3]
        agg = sweep.aggregate(workload.name, system)
        assert agg.num_seeds == 3 and agg.seeds == (1, 2, 3)
        for metric in ("throughput_tokens_per_s", "ttft_p50", "cache_hit_rate"):
            stat = agg.stat(metric)
            assert stat.ci95 is not None and stat.stdev is not None
        # Per-seed wall-clock is recorded alongside the base-seed view.
        for seed in (1, 2, 3):
            assert sweep.wall_clock(workload.name, system, seed=seed) > 0.0
        assert sweep.wall_clock(workload.name, system) == sweep.wall_clock(
            workload.name, system, seed=1
        )
    report = sweep.format_report()
    assert "aggregate over seeds [1, 2, 3]" in report and "±" in report
    import json

    payload = json.loads(sweep.to_json())
    assert {cell["system"] for cell in payload["cells"]} == {"skywalker", "least-load"}


def test_single_seed_aggregate_is_degenerate_not_missing():
    workload = build_arena_workload(scale=0.03, seed=1)
    sweep = run_sweep(
        [REGISTRY.spec("skywalker")], [workload], cluster=tiny_cluster(), duration_s=10.0
    )
    agg = sweep.aggregate(workload.name, "skywalker")
    assert agg.num_seeds == 1
    assert agg.stat("throughput_tokens_per_s").ci95 is None


# ----------------------------------------------------------------------
# figure drivers
# ----------------------------------------------------------------------
def test_macro_benchmark_multi_seed():
    result = run_macro_benchmark(
        systems=("skywalker", "round-robin"),
        workloads=("chatbot-arena",),
        scale=0.03,
        duration_s=10.0,
        cluster=tiny_cluster(),
        seeds=[0, 1],
        workers=2,
    )
    row = result.runs["chatbot-arena"]
    assert set(row) == {"skywalker", "round-robin"}
    for system in row:
        # The base view is seed 0's run; both seeds are retained.
        assert row[system].to_dict() == result.get("chatbot-arena", system, seed=0).to_dict()
        assert set(result.seed_runs["chatbot-arena"][system]) == {0, 1}
        agg = result.aggregate("chatbot-arena", system)
        assert agg.num_seeds == 2
        assert agg.ci95("throughput_tokens_per_s") is not None
    assert "±" in result.format_report()


def test_pushing_benchmark_multi_seed():
    result = run_pushing_benchmark(
        policies=("BP", "SP-P"),
        replicas=2,
        clients=6,
        duration_s=10.0,
        seeds=[7, 8],
    )
    workload = "tot-single-region"
    for policy in ("BP", "SP-P"):
        assert result.get(workload, policy).num_completed > 0
        assert (
            result.get(workload, policy).to_dict()
            == result.get(workload, policy, seed=7).to_dict()
        )
        agg = result.aggregate(workload, policy)
        assert agg.num_seeds == 2
        assert agg.ci95("ttft_p50") is not None
    # Base-seed ratio helpers keep working on the multi-seed result.
    assert throughput_gain(result, "BP", "SP-P") > 0


def test_diurnal_sweep_multi_seed():
    result = run_diurnal_sweep(
        replica_counts=(3,), scale=0.05, duration_s=10.0, seeds=[5, 6]
    )
    (workload,) = result.workloads()
    for system in ("skywalker", "region-local"):
        base = fleet_runs(result, system)[3]
        seed_runs = result.runs_for(workload, system)
        assert set(seed_runs) == {5, 6}
        assert base.to_dict() == seed_runs[5].to_dict()
        agg = result.aggregate(workload, system)
        assert agg.num_seeds == 2 and agg.seeds == (5, 6)
        assert agg.ci95("throughput_tokens_per_s") is not None
    # A typoed system (or row) name must fail loudly, naming the known
    # ones, not return the wrong arm.
    for lookup in (
        lambda: result.aggregate(workload, "sky-walker"),
        lambda: result.get(workload, "sky-walker"),
        lambda: replicas_meeting_slo(result, "sky-walker", 5.0, region=None),
    ):
        with pytest.raises(ValueError, match="unknown system 'sky-walker'.*'region-local'"):
            lookup()
    with pytest.raises(ValueError, match="unknown workload 'regionally-skewed'"):
        result.get("regionally-skewed", "skywalker")


def test_figure_drivers_single_seed_unchanged_by_seed_plumbing():
    """seeds=None keeps the figure drivers bit-identical to seeds=[default]."""
    kwargs = dict(
        systems=("skywalker",),
        workloads=("chatbot-arena",),
        scale=0.03,
        duration_s=10.0,
        cluster=tiny_cluster(),
    )
    legacy = run_macro_benchmark(seed=0, **kwargs)
    seeded = run_macro_benchmark(seeds=[0], **kwargs)
    assert (
        legacy.get("chatbot-arena", "skywalker").to_dict()
        == seeded.get("chatbot-arena", "skywalker").to_dict()
    )
