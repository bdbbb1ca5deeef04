"""Unit tests for the consistent-hash ring."""

from collections import Counter

import pytest

from repro.core import ConsistentHashRing


def test_lookup_is_deterministic():
    ring = ConsistentHashRing(["a", "b", "c"])
    assert ring.lookup("user-1") == ring.lookup("user-1")
    assert all(ring.lookup(f"key-{i}") in {"a", "b", "c"} for i in range(50))


def test_empty_ring_returns_none():
    ring = ConsistentHashRing()
    assert ring.lookup("anything") is None


def test_lookup_skips_unavailable_targets():
    ring = ConsistentHashRing(["a", "b", "c"])
    key = "session-42"
    primary = ring.lookup(key)
    others = {"a", "b", "c"} - {primary}
    fallback = ring.lookup(key, available=others)
    assert fallback in others
    assert fallback != primary


def test_lookup_with_empty_available_set_returns_none():
    ring = ConsistentHashRing(["a", "b"])
    assert ring.lookup("key", available=[]) is None
    assert ring.lookup("key", available=["not-a-member"]) is None


def test_same_key_maps_to_same_target_for_all_requests():
    """The property SkyWalker-CH relies on: a user's requests stick to one
    replica as long as it stays available."""
    ring = ConsistentHashRing([f"replica-{i}" for i in range(8)])
    targets = {ring.lookup("user-alpha") for _ in range(100)}
    assert len(targets) == 1


def test_removing_a_target_only_remaps_its_keys():
    ring = ConsistentHashRing([f"replica-{i}" for i in range(6)], virtual_nodes=128)
    keys = [f"user-{i}" for i in range(300)]
    before = {key: ring.lookup(key) for key in keys}
    ring.remove_target("replica-3")
    after = {key: ring.lookup(key) for key in keys}
    for key in keys:
        if before[key] != "replica-3":
            assert after[key] == before[key]
        else:
            assert after[key] != "replica-3"


def test_add_target_registers_membership():
    ring = ConsistentHashRing(["a"])
    ring.add_target("b")
    assert "b" in ring
    assert len(ring) == 2
    ring.add_target("b")  # idempotent
    assert len(ring) == 2


def test_key_distribution_is_roughly_balanced():
    ring = ConsistentHashRing([f"replica-{i}" for i in range(4)], virtual_nodes=256)
    keys = [f"user-{i}" for i in range(4000)]
    counts = Counter(ring.lookup(key) for key in keys)
    assert sum(counts.values()) == 4000
    assert min(counts.values()) > 0.4 * (4000 / 4)
    assert max(counts.values()) < 2.0 * (4000 / 4)


def test_invalid_virtual_nodes_rejected():
    with pytest.raises(ValueError):
        ConsistentHashRing(virtual_nodes=0)


def test_ring_supports_non_string_targets():
    ring = ConsistentHashRing([0, 1, 2])
    assert ring.lookup("key") in {0, 1, 2}
