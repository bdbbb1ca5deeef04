"""Eviction order of both radix tries: the router's ``PrefixTree`` and the
replica's ``RadixCache``.

Both evict through a lazy min-heap over unlocked leaves.  The order that
heap must reproduce is the historical full scan's: the unlocked leaf with
the smallest ``last_access`` stamp (on the router, an insert sequence number)
and, among leaves tied on it, the first one a stack-based depth-first walk
reaches, which visits the newest sibling first.  The seeded property tests
check every victim against that scan; the pinned digests and heap-pop
counts below fix the order and the work of eviction on the perf suite's
synthetic paths exactly.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core.prefix_tree import PrefixTree
from repro.perf.suite import _build_tree, _make_paths
from repro.replica import kv_cache
from repro.replica.kv_cache import RadixCache


def scan_victim(root):
    """The historical full-scan victim: the first minimum-``last_access``
    leaf in a stack walk from ``root``, over attached, unlocked leaves."""
    best = None
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children.values())
        if node is root or node.children or node.lock_count:
            continue
        if best is None or node.last_access < best.last_access:
            best = node
    return best


def path_of(node):
    parts = []
    while node.parent is not None:
        parts.append(node.key)
        node = node.parent
    return tuple(token for part in reversed(parts) for token in part)


def attached(node):
    return node.parent.children.get(node.key[0]) is node


class CheckedBudget:
    """A ``PrefixTree.max_tokens`` that checks each victim against the scan.

    ``_enforce_capacity`` compares the tree's total with its budget once
    before each eviction (``total > budget`` asks ``budget.__lt__``), so the
    budget sees the tree between any two victims: it names the scan's
    victim when the tree is over, and at the next comparison that leaf must
    be the one gone.
    """

    def __init__(self, tree: PrefixTree, limit: int) -> None:
        self.tree = tree
        self.limit = limit
        self.expected = None

    def __lt__(self, total) -> bool:
        if self.expected is not None:
            assert not attached(self.expected), "evicted another leaf than the scan"
        over = total > self.limit
        self.expected = scan_victim(self.tree.root) if over else None
        assert self.expected is not None or not over
        return over


# ----------------------------------------------------------------------
# every victim against the full scan
# ----------------------------------------------------------------------
token = st.integers(min_value=0, max_value=3)
sequence = st.lists(token, min_size=1, max_size=10).map(tuple)
target = st.sampled_from(["a", "b", "c"])

router_op = st.one_of(
    st.tuples(st.just("insert"), sequence, target),
    st.tuples(st.just("remove"), st.none(), target),
    st.tuples(st.just("shrink"), st.integers(min_value=1, max_value=30), st.none()),
)


@seed(20260)
@given(st.integers(min_value=4, max_value=40), st.lists(router_op, min_size=1, max_size=50))
@settings(max_examples=120, deadline=None)
def test_router_trie_evicts_the_scan_victim(limit, ops):
    tree = PrefixTree()
    budget = CheckedBudget(tree, limit)
    tree.max_tokens = budget
    for op, payload, tgt in ops:
        if op == "insert":
            tree.insert(payload, tgt)
        elif op == "remove":
            tree.remove_target(tgt)
        else:
            budget.limit = payload
            tree._enforce_capacity()
        assert tree.total_tokens <= budget.limit
        tree.check_invariants()


cache_op = st.one_of(
    # ``tick`` advances the clock; inserts and lookups in between share it.
    st.tuples(st.just("insert"), sequence, st.booleans()),
    st.tuples(st.just("match"), sequence, st.booleans()),
    st.tuples(st.just("lock"), sequence, st.none()),
    st.tuples(st.just("unlock"), st.integers(min_value=0, max_value=7), st.none()),
    st.tuples(st.just("evict"), st.integers(min_value=1, max_value=12), st.none()),
)


@seed(20261)
@given(
    st.sampled_from([float("inf"), 24.0]),
    st.lists(cache_op, min_size=1, max_size=60),
)
@settings(max_examples=120, deadline=None)
def test_radix_cache_evicts_the_scan_victim(capacity, ops):
    cache = RadixCache(capacity_tokens=capacity)
    checked = []

    def check_victim(tokens, now):
        victim = scan_victim(cache.root)
        assert victim is not None and victim.path_tokens() == tokens
        checked.append(tokens)

    cache.on_evict = check_victim
    locks = []
    now = 0.0
    for op, payload, tick in ops:
        if tick:
            now += 1.0
        if op == "insert":
            cache.insert(payload, now=now)
        elif op == "match":
            cache.match_prefix(payload, now=now)
        elif op == "lock":
            node = cache.match_prefix(payload, now=now, record=False).last_node
            if node is not None:
                cache.lock(node)
                locks.append(node)
        elif op == "unlock":
            if locks:
                cache.unlock(locks.pop(payload % len(locks)))
        else:
            before = len(checked)
            evicted = cache.evict(payload, now=now)
            assert (evicted > 0) == (len(checked) > before)
        cache.check_invariants()


# ----------------------------------------------------------------------
# pinned victim order and heap work on the perf suite's synthetic paths
# ----------------------------------------------------------------------
def _count_pops(monkeypatch, popped):
    real = kv_cache.heappop

    def counting(heap):
        entry = real(heap)
        popped.append(entry[-1])
        return entry

    monkeypatch.setattr(kv_cache, "heappop", counting)


class RecordingBudget:
    """A ``max_tokens`` that names each victim from the heap pops between
    two of ``_enforce_capacity``'s budget comparisons: the one popped node
    that is detached and was not a victim before."""

    def __init__(self, limit, popped) -> None:
        self.limit = limit
        self.popped = popped
        self.seen = 0
        self.victims = []
        self.victim_ids = set()

    def __lt__(self, total) -> bool:
        fresh = {
            id(node): node
            for node in self.popped[self.seen :]
            if not attached(node) and id(node) not in self.victim_ids
        }
        assert len(fresh) <= 1
        for key, node in fresh.items():
            self.victim_ids.add(key)
            self.victims.append(node)
        self.seen = len(self.popped)
        return total > self.limit


def _digest(paths) -> int:
    crc = 0
    for path in paths:
        crc = zlib.crc32(repr(path).encode(), crc)
    return crc


def _suite_paths(size):
    return _make_paths(random.Random(31 + size), size, n_shared=max(8, size // 64))


#: size -> (victims, crc32 of their paths in eviction order, heap pops).
ROUTER_PINS = {
    256: (131, 34503763, 131),
    1024: (517, 3061297623, 517),
    4096: (2068, 153586635, 2068),
}


@pytest.mark.parametrize("size", sorted(ROUTER_PINS))
def test_router_trie_eviction_to_half_capacity_is_pinned(size, monkeypatch):
    tree = _build_tree(_suite_paths(size))
    popped = []
    _count_pops(monkeypatch, popped)
    budget = RecordingBudget(tree.total_tokens / 2, popped)
    tree.max_tokens = budget
    tree._enforce_capacity()
    victims = [path_of(node) for node in budget.victims]
    pinned = (len(victims), _digest(victims), len(popped))
    assert pinned == ROUTER_PINS[size]


#: (size, tied) -> (victims, crc32 of their paths in eviction order, heap pops).
CACHE_PINS = {
    (256, False): (264, 1432776956, 280),
    (1024, False): (1040, 3962044492, 1072),
    (4096, False): (4160, 227933623, 4288),
    (256, True): (264, 600844742, 33808),
}


@pytest.mark.parametrize("size, tied", sorted(CACHE_PINS))
def test_radix_cache_eviction_of_everything_is_pinned(size, tied, monkeypatch):
    cache = RadixCache()
    paths = _suite_paths(size)
    for i, path in enumerate(paths):
        cache.insert(path, now=0.0 if tied else float(i))
    victims = []
    cache.on_evict = lambda tokens, now: victims.append(tokens)
    popped = []
    _count_pops(monkeypatch, popped)
    total = cache.total_tokens
    assert cache.evict(total, now=float(len(paths))) == total
    pinned = (len(victims), _digest(victims), len(popped))
    assert pinned == CACHE_PINS[(size, tied)]
