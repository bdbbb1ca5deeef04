"""Unit tests for the tiered KV store, transfer model and offload policies."""

import pickle

import pytest

from repro.mem import (
    LruDemote,
    MemoryConfig,
    OffloadPolicy,
    TieredKVStore,
    TierSpec,
    TierStore,
    TransferModel,
    make_offload_policy,
    register_offload_policy,
    registered_offload_policies,
    unregister_offload_policy,
)

HOST = TransferModel(latency_s=100e-6, bandwidth_bytes_per_s=1e9, bytes_per_token=100)
DISK = TransferModel(latency_s=2e-3, bandwidth_bytes_per_s=1e8, bytes_per_token=100)


def make_store(host_tokens=64, disk_tokens=256, offload="lru-demote", page_size=1):
    return TieredKVStore(
        [
            TierSpec("host", host_tokens, HOST),
            TierSpec("disk", disk_tokens, DISK),
        ],
        offload_policy=make_offload_policy(offload),
        page_size=page_size,
    )


def seq(start, n):
    return tuple(range(start, start + n))


# ----------------------------------------------------------------------
# transfer model
# ----------------------------------------------------------------------
def test_transfer_delay_is_latency_plus_bytes_over_bandwidth():
    model = TransferModel(latency_s=1e-3, bandwidth_bytes_per_s=1e6, bytes_per_token=10)
    assert model.bytes_for(100) == 1000
    assert model.delay_s(100) == pytest.approx(1e-3 + 1000 / 1e6)


def test_transfer_model_validation():
    with pytest.raises(ValueError):
        TransferModel(latency_s=-1.0, bandwidth_bytes_per_s=1.0, bytes_per_token=1)
    with pytest.raises(ValueError):
        TransferModel(latency_s=0.0, bandwidth_bytes_per_s=0.0, bytes_per_token=1)


# ----------------------------------------------------------------------
# TierStore: dedup, eviction, matching
# ----------------------------------------------------------------------
def test_put_dedups_covered_segment():
    store = TierStore(TierSpec("host", 64, HOST), page_size=1)
    long_seg, _ = store.put(seq(0, 32), now=0.0)
    assert long_seg is not None
    short_seg, evicted = store.put(seq(0, 16), now=1.0)
    assert short_seg is None and evicted == []
    assert store.num_segments == 1
    # Recency was merged into the covering segment.
    assert long_seg.last_access == 1.0
    store.check_invariants()


def test_put_replaces_extended_segment():
    store = TierStore(TierSpec("host", 64, HOST), page_size=1)
    store.put(seq(0, 16), now=0.0)
    longer, _ = store.put(seq(0, 32), now=1.0)
    assert store.num_segments == 1
    assert longer.num_tokens == 32
    store.check_invariants()


def test_put_evicts_lru_first():
    store = TierStore(TierSpec("host", 32, HOST), page_size=1)
    store.put(seq(0, 16), now=0.0)
    store.put(seq(100, 16), now=1.0)
    stored, evicted = store.put(seq(200, 16), now=2.0)
    assert stored is not None
    assert [v.tokens for v in evicted] == [seq(0, 16)]
    store.check_invariants()


def test_oversized_segment_is_refused():
    store = TierStore(TierSpec("host", 32, HOST), page_size=1)
    stored, evicted = store.put(seq(0, 33), now=0.0)
    assert stored is None and evicted == []
    store.check_invariants()


def test_match_longest_common_prefix():
    store = TierStore(TierSpec("host", 128, HOST), page_size=1)
    store.put(seq(0, 32), now=0.0)
    store.put(seq(0, 12) + seq(100, 20), now=0.0)
    matched, segment = store.match(seq(0, 40))
    assert matched == 32
    assert segment.tokens == seq(0, 32)
    # A prompt diverging past the bucket key partially matches.
    matched, _ = store.match(seq(0, 12) + seq(500, 8))
    assert matched == 12
    # Divergence inside the bucket key itself finds nothing: the bucketed
    # index is an approximation tuned for verbatim-resent prefixes.
    matched, segment = store.match((0, 1, 2, 3) + seq(500, 4))
    assert matched == 0 and segment is None


def test_match_short_prompt_across_buckets():
    store = TierStore(TierSpec("host", 64, HOST), page_size=1)
    store.put(seq(0, 32), now=0.0)
    matched, segment = store.match(seq(0, 4))  # shorter than the bucket key
    assert matched == 4
    assert segment is not None


# ----------------------------------------------------------------------
# TieredKVStore: demote / lookup / promote and the transfer engine
# ----------------------------------------------------------------------
def test_demote_lands_in_first_lower_tier():
    store = make_store()
    store.demote(seq(0, 16), now=1.0)
    assert store.stores["host"].used_tokens == 16
    assert store.demoted_tokens == 16
    assert store.demotion_bytes == 16 * 100
    # Demotion is asynchronous: the engine is busy, nothing stalled.
    assert store.engine_free_at == pytest.approx(1.0 + HOST.delay_s(16))
    assert store.transfer_stall_s == 0.0


def test_demotion_cascades_to_disk():
    store = make_store(host_tokens=32)
    store.demote(seq(0, 32), now=0.0)
    store.demote(seq(100, 32), now=1.0)
    # The second demotion displaces the first host segment down to disk.
    assert store.stores["host"].used_tokens == 32
    assert store.stores["disk"].used_tokens == 32
    assert store.demoted_tokens == 96  # 32 + 32 into host, 32 into disk


def test_never_offload_drops_everything():
    store = make_store(offload="never-offload")
    store.demote(seq(0, 16), now=0.0)
    assert store.dropped_tokens == 16
    assert store.stores["host"].used_tokens == 0


def test_lookup_and_promote_charge_stall_and_remove_segment():
    store = make_store()
    store.demote(seq(0, 32), now=0.0)
    found = store.lookup(seq(0, 40), hbm_matched=8)
    assert found is not None
    tier, matched, _ = found
    assert tier == "host" and matched == 32
    engine_busy_until = store.engine_free_at
    promoted, stall = store.promote(found, hbm_matched=8, now=engine_busy_until)
    # Only the 24 tokens beyond the HBM match cross the boundary.
    assert promoted == 24
    assert stall == pytest.approx(HOST.delay_s(24))
    assert store.stores["host"].used_tokens == 0
    assert store.tier_hit_tokens["host"] == 24
    assert store.promotion_bytes == 24 * 100


def test_promote_waits_for_busy_engine():
    store = make_store()
    store.demote(seq(0, 16), now=0.0)  # engine busy
    queue_delay = store.engine_free_at
    found = store.lookup(seq(0, 16), hbm_matched=0)
    promoted, stall = store.promote(found, hbm_matched=0, now=0.0)
    assert promoted == 16
    assert stall == pytest.approx(queue_delay + HOST.delay_s(16))


def test_lookup_returns_none_when_hbm_already_covers():
    store = make_store()
    store.demote(seq(0, 16), now=0.0)
    assert store.lookup(seq(0, 16), hbm_matched=16) is None


def test_export_restore_round_trip():
    store = make_store()
    store.demote(seq(0, 16), now=0.0, from_tier="hbm")
    snapshot = store.export_tier("host")
    fresh = make_store()
    fresh.restore_tier("host", snapshot, now=5.0)
    assert fresh.stores["host"].used_tokens == 16
    matched, segment = fresh.stores["host"].match(seq(0, 16))
    assert matched == 16 and segment.last_access == 5.0


def test_zero_capacity_tiers_are_skipped():
    store = TieredKVStore(
        [TierSpec("host", 0, HOST), TierSpec("disk", 64, DISK)],
        offload_policy=make_offload_policy("lru-demote"),
    )
    assert store.order == ("disk",)
    store.demote(seq(0, 16), now=0.0)
    assert store.stores["disk"].used_tokens == 16


# ----------------------------------------------------------------------
# policies and their registries
# ----------------------------------------------------------------------
def test_builtin_policies_are_registered():
    assert {"never-offload", "lru-demote"} <= set(registered_offload_policies())


def test_never_offload_is_inert():
    assert make_offload_policy("never-offload").inert
    assert not make_offload_policy("lru-demote").inert


def test_invalid_offload_target_raises():
    class Rogue(OffloadPolicy):
        name = "rogue"

        def demote_target(self, from_tier, lower_tiers):
            return "hbm"  # never a valid destination

    store = TieredKVStore([TierSpec("host", 64, HOST)], offload_policy=Rogue())
    with pytest.raises(ValueError, match="routed"):
        store.demote(seq(0, 8), now=0.0)


def test_third_party_policy_registration_round_trip():
    @register_offload_policy("unit-test-offload")
    class TestPolicy(OffloadPolicy):
        name = "unit-test-offload"

        def demote_target(self, from_tier, lower_tiers):
            return None

    try:
        assert "unit-test-offload" in registered_offload_policies()
        assert isinstance(make_offload_policy("unit-test-offload"), TestPolicy)
        with pytest.raises(ValueError, match="already registered"):
            register_offload_policy("unit-test-offload")(TestPolicy)
    finally:
        unregister_offload_policy("unit-test-offload")
    assert "unit-test-offload" not in registered_offload_policies()


# ----------------------------------------------------------------------
# MemoryConfig
# ----------------------------------------------------------------------
def test_memory_config_defaults_are_legacy():
    config = MemoryConfig()
    assert not config.tiering_enabled
    assert not config.push_enabled
    assert not config.telemetry_enabled
    assert config.build_store(128) is None
    assert config.hbm_capacity_tokens(1000) == 1000


def test_memory_config_hbm_fraction_and_page_rounding():
    config = MemoryConfig(page_size=16, hbm_fraction=0.5)
    assert config.hbm_capacity_tokens(1000) == 496  # 500 rounded down to pages
    assert config.telemetry_enabled


def test_memory_config_builds_tiered_store():
    config = MemoryConfig(host_capacity_tokens=1024, offload="lru-demote")
    store = config.build_store(bytes_per_token=128)
    assert store is not None
    assert store.order == ("host",)
    assert store.stores["host"].spec.transfer.bytes_per_token == 128


def test_memory_config_is_picklable():
    config = MemoryConfig(
        page_size=16,
        host_capacity_tokens=4096,
        disk_capacity_tokens=65536,
        offload="lru-demote",
    )
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    store = clone.build_store(64)
    assert store.order == ("host", "disk")
    assert isinstance(store.offload_policy, LruDemote)


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(page_size=0)
    with pytest.raises(ValueError):
        MemoryConfig(hbm_fraction=0.0)
    with pytest.raises(ValueError):
        MemoryConfig(hbm_fraction=1.5)
    with pytest.raises(ValueError):
        MemoryConfig(host_capacity_tokens=-1)
