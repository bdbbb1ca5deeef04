"""Property-based tests for the radix KV cache (hypothesis)."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.replica import TINY_TEST_PROFILE, KVMemoryManager, RadixCache

# Small alphabet so random sequences share prefixes often.
token = st.integers(min_value=0, max_value=5)
sequence = st.lists(token, min_size=1, max_size=24).map(tuple)


@given(st.lists(sequence, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_invariants_hold_after_arbitrary_inserts(sequences):
    cache = RadixCache()
    for index, seq in enumerate(sequences):
        cache.insert(seq, now=float(index))
        cache.check_invariants()


@given(st.lists(sequence, min_size=1, max_size=30), sequence)
@settings(max_examples=60, deadline=None)
def test_match_never_exceeds_true_common_prefix(sequences, probe):
    cache = RadixCache()
    for seq in sequences:
        cache.insert(seq)
    matched = cache.match_prefix(probe, record=False).matched_tokens
    best_true = 0
    for seq in sequences:
        common = 0
        for a, b in zip(seq, probe):
            if a != b:
                break
            common += 1
        best_true = max(best_true, common)
    # The cache can never report more overlap than genuinely exists, and an
    # unbounded cache must find the full best overlap.
    assert matched == best_true


@given(st.lists(sequence, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_inserted_sequences_are_fully_matched_when_capacity_unbounded(sequences):
    cache = RadixCache()
    for seq in sequences:
        cache.insert(seq)
    for seq in sequences:
        assert cache.match_prefix(seq, record=False).matched_tokens == len(seq)


@given(st.lists(sequence, min_size=1, max_size=30), st.integers(min_value=1, max_value=40))
@settings(max_examples=60, deadline=None)
def test_capacity_is_never_exceeded(sequences, capacity):
    cache = RadixCache(capacity_tokens=capacity)
    for index, seq in enumerate(sequences):
        needed = len(seq)
        free = cache.capacity_tokens - cache.total_tokens
        if needed > free:
            cache.evict(needed - free, now=float(index))
        cache.insert(seq, now=float(index))
        assert cache.total_tokens <= capacity
        cache.check_invariants()


@given(st.lists(sequence, min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_eviction_of_unlocked_tree_can_reach_zero(sequences):
    cache = RadixCache()
    for seq in sequences:
        cache.insert(seq)
    cache.evict(cache.total_tokens + 10)
    assert cache.total_tokens == 0


@given(st.lists(sequence, min_size=1, max_size=20), st.data())
@settings(max_examples=40, deadline=None)
def test_locked_sequence_survives_eviction(sequences, data):
    cache = RadixCache()
    for seq in sequences:
        cache.insert(seq)
    protected = data.draw(st.sampled_from(sequences))
    node = cache.match_prefix(protected, record=False).last_node
    cache.lock(node)
    cache.evict(cache.total_tokens)
    assert cache.match_prefix(protected, record=False).matched_tokens == len(protected)
    cache.unlock(node)
    cache.check_invariants()


# ----------------------------------------------------------------------
# the single-walk insert
# ----------------------------------------------------------------------
# ``insert_path`` returns what ``match_prefix(tokens, record=False)`` would
# right after a plain insert, so an admission needs no third walk.  The
# checks below run seeded random histories over a small alphabet, so
# prompts share prefixes, split edges, end inside edges and (with a small
# capacity) get truncated.


def _tree_shape(cache):
    """Every node's path, last access and lock count, in DFS order."""

    def walk(node, path):
        yield path, node.last_access, node.lock_count
        for first in sorted(node.children):
            child = node.children[first]
            yield from walk(child, path + child.key)

    return list(walk(cache.root, ()))


def _path(node):
    return None if node is None else node.path_tokens()


def _random_prompt(rng, history):
    """A fresh sequence, an extension or divergence of an earlier one, or
    a proper prefix of one (which ends inside or at the end of an edge)."""
    fresh = tuple(rng.randrange(4) for _ in range(rng.randint(1, 12)))
    if not history or rng.random() < 0.3:
        return fresh
    base = rng.choice(history)
    cut = rng.randint(1, len(base))
    if rng.random() < 0.4:
        return base[:cut]
    return base[:cut] + fresh


@pytest.mark.parametrize("capacity", [float("inf"), 40, 12])
def test_insert_path_returns_the_follow_up_lookup(capacity):
    seen = {"split": 0, "mid_edge": 0, "truncated": 0, "shared": 0}
    for seed in range(30):
        rng = random.Random(seed)
        walked = RadixCache(capacity_tokens=capacity)
        twin = RadixCache(capacity_tokens=capacity)
        history = []
        for step in range(40):
            tokens = _random_prompt(rng, history)
            history.append(tokens)
            now = float(step // 3)  # ties on last_access, as in one batch
            if rng.random() < 0.3:
                amount = rng.randint(1, 10)
                assert walked.evict(amount, now=now) == twin.evict(amount, now=now)
            before = twin.match_prefix(tokens, record=False)
            ends_on_node = sum(node.num_tokens for node in before.nodes) == len(tokens)
            if before.matched_tokens == len(tokens) and not ends_on_node:
                seen["mid_edge"] += 1
            elif 0 < before.matched_tokens < len(tokens):
                seen["shared"] += 1
            nodes_before = walked._node_count

            added, matched, node = walked.insert_path(tokens, now=now)
            assert twin.insert(tokens, now=now) == added
            lookup = twin.match_prefix(tokens, now=now, record=False)
            assert matched == lookup.matched_tokens
            assert _path(node) == _path(lookup.last_node)
            # Same cache: the lookup lands on the very node returned.
            assert walked.match_prefix(tokens, now=now, record=False).last_node is node
            assert _tree_shape(walked) == _tree_shape(twin)
            walked.check_invariants()

            if walked._node_count > nodes_before + (1 if added else 0):
                seen["split"] += 1
            if matched < len(tokens):
                seen["truncated"] += 1
    assert seen["split"] and seen["mid_edge"] and seen["shared"]
    assert bool(seen["truncated"]) == (capacity != float("inf"))


def _three_walk_manager(profile):
    """A manager whose admission walks the prompt three times, as it did
    before ``insert_path``: lookup, insert, then a follow-up lookup for the
    node to lock."""
    manager = KVMemoryManager(profile)
    cache = manager.cache

    def insert_then_match(tokens, now=0.0):
        added = RadixCache.insert_path(cache, tokens, now)[0]
        lookup = cache.match_prefix(tokens, now=now, record=False)
        return added, lookup.matched_tokens, lookup.last_node

    cache.insert_path = insert_then_match
    return manager


@pytest.mark.parametrize("seed", range(12))
def test_single_walk_admission_evicts_like_the_three_walk_path(seed):
    profile = replace(TINY_TEST_PROFILE, gpu_memory_bytes=1_000 + 160)
    rng = random.Random(seed)
    managers = [KVMemoryManager(profile), _three_walk_manager(profile)]
    victims = [[], []]
    for manager, log in zip(managers, victims):
        manager.cache.on_evict = lambda tokens, now, log=log: log.append((tokens, now))
    running = {}
    history = []
    for step in range(200):
        now = float(step // 2)
        roll = rng.random()
        if running and roll < 0.35:
            request_id = rng.choice(sorted(running))
            tokens = running.pop(request_id)
            full = tokens + tuple(rng.randrange(4) for _ in range(rng.randint(0, 6)))
            cache_output = rng.random() < 0.5
            for manager in managers:
                manager.release(request_id, now, cache_output=cache_output, full_sequence=full)
        elif roll < 0.45:
            amount = rng.randint(1, 30)
            assert len({manager.cache.evict(amount, now=now) for manager in managers}) == 1
        else:
            tokens = _random_prompt(rng, history)
            history.append(tokens)
            grants = [manager.admit(step, tokens, now) for manager in managers]
            assert (grants[0] is None) == (grants[1] is None)
            if grants[0] is not None:
                single, three = grants
                assert (single.cached_tokens, single.new_prompt_tokens) == (
                    three.cached_tokens,
                    three.new_prompt_tokens,
                )
                assert _path(single.locked_node) == _path(three.locked_node)
                running[step] = tokens
        assert victims[0] == victims[1]
        assert _tree_shape(managers[0].cache) == _tree_shape(managers[1].cache)
        assert managers[0].used_tokens == managers[1].used_tokens
        for manager in managers:
            manager.check_invariants()
    assert victims[0], "the history never evicted anything"
