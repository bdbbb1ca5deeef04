"""Radix-tree KV prefix cache, modelled after SGLang's RadixAttention cache.

The cache stores token sequences in a compressed radix tree.  Each edge is a
run of tokens; the number of tokens stored in the tree is the cache's memory
footprint.  Running requests *lock* the nodes on their prompt path so the
evictor can never free memory that an in-flight sequence still needs.

The simulator uses the cache for two purposes:

* inside a replica, to decide how many prompt tokens of a new request are
  already resident (prefix hit -> shorter prefill), and
* inside SkyWalker's load balancer, where the same data structure (without
  memory accounting) tracks which *targets* have seen which prefixes
  (:mod:`repro.core.prefix_tree` builds on the node layout defined here).

Hot-path design:

* **LRU eviction is O(log n)** via a lazy min-heap over unlocked leaves
  keyed by ``(last_access, entry_id)``.  Every touch of a leaf pushes a
  fresh entry; stale entries (node re-touched, locked, grown children, or
  detached) are skipped at pop time.  The ``entry_id`` makes the order
  among equal ``last_access`` values deterministic (earliest-recorded
  first) without ever comparing nodes.
* **``evictable_tokens`` is O(1)**: a running counter of tokens on
  unlocked non-root edges, maintained by insert/split/lock/unlock/evict.
  The replica's admission path calls it per request, so the old full-tree
  recount was a per-request linear scan.
* **Lookups descend by offset** into the caller's token sequence instead
  of slicing suffix tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RadixNode", "RadixCache", "MatchResult"]


class RadixNode:
    """One node of the radix tree.

    ``key`` is the token run on the edge from ``parent`` to this node.  The
    root has an empty key and no parent.
    """

    __slots__ = ("key", "parent", "children", "last_access", "lock_count", "hit_count")

    def __init__(
        self,
        key: Tuple[int, ...] = (),
        parent: Optional["RadixNode"] = None,
    ) -> None:
        self.key = key
        self.parent = parent
        self.children: Dict[int, "RadixNode"] = {}
        self.last_access = 0.0
        self.lock_count = 0
        #: Lifetime number of recorded prefix matches covering this edge;
        #: offload policies use it as the segment's "heat" when the node is
        #: eventually evicted (see ``pin-hot-prefixes``).
        self.hit_count = 0

    # ------------------------------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Number of tokens stored on the edge leading to this node."""
        return len(self.key)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def path_tokens(self) -> Tuple[int, ...]:
        """Full token sequence from the root to this node."""
        parts: List[Tuple[int, ...]] = []
        node: Optional[RadixNode] = self
        while node is not None and not node.is_root:
            parts.append(node.key)
            node = node.parent
        return tuple(tok for part in reversed(parts) for tok in part)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<RadixNode len={len(self.key)} children={len(self.children)} locks={self.lock_count}>"


@dataclass
class MatchResult:
    """Result of a prefix lookup."""

    #: Number of prompt tokens found in the cache.
    matched_tokens: int
    #: Nodes whose full edge is covered by the match, root-excluded, in
    #: root-to-leaf order.  Locking these pins the matched prefix in memory.
    nodes: List[RadixNode] = field(default_factory=list)

    @property
    def last_node(self) -> Optional[RadixNode]:
        return self.nodes[-1] if self.nodes else None


class RadixCache:
    """A size-bounded radix tree over token sequences with LRU eviction.

    Parameters
    ----------
    capacity_tokens:
        Maximum number of tokens the tree may hold.  ``insert`` never grows
        the tree beyond this; callers evict first (see
        :meth:`evict`) or accept partial insertion.
    """

    def __init__(self, capacity_tokens: float = float("inf")) -> None:
        if capacity_tokens <= 0:
            raise ValueError("capacity_tokens must be positive")
        self.capacity_tokens = capacity_tokens
        self.root = RadixNode()
        self._total_tokens = 0
        self._evictable_tokens = 0
        self._node_count = 0
        # Monotonic counters for cache-hit statistics.
        self.lookup_tokens = 0
        self.hit_tokens = 0
        #: Lazy LRU heap over unlocked leaves: ``(last_access, entry_id,
        #: node)``; see the module docstring.
        self._leaf_heap: List[Tuple[float, int, RadixNode]] = []
        self._entry_ids = itertools.count()
        #: Optional demotion hook ``(tokens, hits, last_access, now)`` called
        #: for every pressure-eviction victim *before* it is removed -- the
        #: tiered KV store registers itself here so victims spill to lower
        #: tiers instead of vanishing.  ``None`` (default) keeps the legacy
        #: drop-on-evict behaviour, with zero extra work on the hot path.
        self.on_evict = None

    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        """Number of tokens currently stored in the tree."""
        return self._total_tokens

    @property
    def hit_rate(self) -> float:
        """Lifetime token-level cache hit rate of ``match_prefix`` calls."""
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens / self.lookup_tokens

    # ------------------------------------------------------------------
    # LRU bookkeeping
    # ------------------------------------------------------------------
    def _note_leaf(self, node: RadixNode) -> None:
        """Record an eviction-heap entry if ``node`` is an unlocked leaf.

        Called whenever a node's ``last_access`` changes or it (re)gains
        leaf/unlocked status; stale entries die lazily at pop time.
        """
        if not node.children and node.lock_count == 0 and node.parent is not None:
            heap = self._leaf_heap
            heappush(heap, (node.last_access, next(self._entry_ids), node))
            # Caches that never hit capacity never pop, so stale entries
            # (and the detached nodes they reference) would otherwise pile
            # up for the whole run; compact once the heap clearly outgrows
            # the live tree.
            if len(heap) > 64 and len(heap) > 4 * self._node_count:
                self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop stale entries, keeping the first-popping entry per leaf."""
        live: Dict[int, Tuple[float, int, RadixNode]] = {}
        for entry in self._leaf_heap:
            if self._entry_live(entry[0], entry[2]):
                key = id(entry[2])
                previous = live.get(key)
                if previous is None or entry < previous:
                    live[key] = entry
        self._leaf_heap = list(live.values())
        heapify(self._leaf_heap)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def match_prefix(self, tokens: Sequence[int], now: float = 0.0, *, record: bool = True) -> MatchResult:
        """Return the longest cached prefix of ``tokens``.

        A partial match of an edge does not count: only whole edges are
        returned in ``nodes`` (matching SGLang, where a partially matched
        block is split on insert, not on lookup).  ``matched_tokens`` however
        reports the exact token-level overlap, which is what determines how
        much prefill compute is saved.

        Note that the lookup touches ``last_access`` on the matched path
        even with ``record=False`` and the default ``now=0.0`` — historical
        touch-on-read semantics that sized-cache callers rely on for
        bit-reproducibility; pass the real clock if recency matters.
        """
        node = self.root
        matched = 0
        nodes: List[RadixNode] = []
        idx = 0
        n = len(tokens)
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                break
            key = child.key
            klen = len(key)
            # Full-edge comparisons dominate multi-turn lookups (the resent
            # history matches whole edges); one C-level tuple comparison
            # beats a Python loop over thousands of tokens.
            if klen <= n - idx and tokens[idx : idx + klen] == key:
                overlap = klen
            else:
                limit = min(klen, n - idx)
                overlap = 0
                while overlap < limit and key[overlap] == tokens[idx + overlap]:
                    overlap += 1
            if overlap == 0:
                break
            matched += overlap
            idx += overlap
            child.last_access = now
            if record:
                child.hit_count += 1
            self._note_leaf(child)
            if overlap == len(key):
                nodes.append(child)
                node = child
            else:
                # Partial edge match: stop here (the caller may insert to
                # split the edge).
                break
        if record:
            self.lookup_tokens += n
            self.hit_tokens += matched
        return MatchResult(matched_tokens=matched, nodes=nodes)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, tokens: Sequence[int], now: float = 0.0) -> int:
        """Insert ``tokens`` into the tree, returning the tokens newly added.

        The insert is capacity-aware: if adding the suffix would exceed
        ``capacity_tokens`` the caller is expected to have evicted first;
        whatever does not fit is silently truncated (the cache holds a
        prefix of the sequence, which is always semantically valid).
        """
        tokens = tuple(tokens)
        node = self.root
        idx = 0
        added = 0
        n = len(tokens)
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                remaining_capacity = self.capacity_tokens - self._total_tokens
                if remaining_capacity <= 0:
                    break
                take = int(min(n - idx, remaining_capacity))
                new_node = RadixNode(key=tokens[idx : idx + take], parent=node)
                new_node.last_access = now
                node.children[tokens[idx]] = new_node
                self._total_tokens += take
                self._evictable_tokens += take
                self._node_count += 1
                added += take
                self._note_leaf(new_node)
                break
            key = child.key
            klen = len(key)
            if klen <= n - idx and tokens[idx : idx + klen] == key:
                overlap = klen
            else:
                limit = min(klen, n - idx)
                overlap = 0
                while overlap < limit and key[overlap] == tokens[idx + overlap]:
                    overlap += 1
            child.last_access = now
            self._note_leaf(child)
            if overlap == klen:
                node = child
                idx += overlap
                continue
            # Split the edge at the divergence point.
            upper = self._split(child, overlap)
            node = upper
            idx += overlap
        return added

    def _split(self, node: RadixNode, offset: int) -> RadixNode:
        """Split ``node``'s edge so that its first ``offset`` tokens become a
        new parent node.  ``node`` keeps its identity as the *lower* half so
        that lock references held by running requests (which always cover the
        full original edge) keep protecting the whole path when they unlock.
        Returns the newly created upper node.
        """
        if not 0 < offset < len(node.key):
            raise ValueError("split offset must be strictly inside the edge")
        parent = node.parent
        assert parent is not None
        upper = RadixNode(key=node.key[:offset], parent=parent)
        upper.last_access = node.last_access
        # The lower half's lock holders all cover the upper half too, and
        # every hit on the old edge covered (at least) its upper half.
        upper.lock_count = node.lock_count
        upper.hit_count = node.hit_count
        parent.children[upper.key[0]] = upper
        node.key = node.key[offset:]
        node.parent = upper
        upper.children = {node.key[0]: node}
        self._node_count += 1
        # The edge's tokens are merely redistributed between the two halves
        # and both share the lock state, so ``_evictable_tokens`` is
        # unchanged.  The lower half's heap entries stay valid: validation
        # is by object identity and current attachment, not by key.
        return upper

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock(self, node: Optional[RadixNode]) -> None:
        """Pin ``node`` and all of its ancestors (a running request's prefix)."""
        while node is not None and not node.is_root:
            if node.lock_count == 0:
                self._evictable_tokens -= len(node.key)
            node.lock_count += 1
            node = node.parent

    def unlock(self, node: Optional[RadixNode]) -> None:
        """Release a previous :meth:`lock` on ``node``'s path."""
        while node is not None and not node.is_root:
            if node.lock_count <= 0:
                raise RuntimeError("unlock without matching lock")
            node.lock_count -= 1
            if node.lock_count == 0:
                self._evictable_tokens += len(node.key)
                self._note_leaf(node)
            node = node.parent

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evictable_tokens(self) -> int:
        """Tokens stored on unlocked edges (free-able memory)."""
        return self._evictable_tokens

    def evict(self, num_tokens: int, now: float = 0.0) -> int:
        """Evict at least ``num_tokens`` tokens if possible, LRU-leaf first.

        Returns the number of tokens actually evicted.  Locked nodes are
        never evicted.  Leaves sharing a ``last_access`` timestamp are
        evicted in the same (deterministic) order as the historical
        full-scan implementation, so eviction sequences are reproducible
        across both.
        """
        evicted = 0
        while evicted < num_tokens:
            victim = self._pop_lru_leaf()
            if victim is None:
                break
            if self.on_evict is not None:
                self.on_evict(
                    victim.path_tokens(), victim.hit_count, victim.last_access, now
                )
            evicted += self._remove_leaf(victim)
        return evicted

    @staticmethod
    def _entry_live(last_access: float, node: RadixNode) -> bool:
        """Is a heap entry still an accurate view of an unlocked leaf?"""
        return (
            last_access == node.last_access
            and not node.children
            and node.lock_count == 0
            and node.parent is not None
            and node.parent.children.get(node.key[0]) is node
        )

    def _pop_lru_leaf(self) -> Optional[RadixNode]:
        heap = self._leaf_heap
        while heap:
            last_access, entry_id, node = heappop(heap)
            if not self._entry_live(last_access, node):
                continue
            # Timestamp ties (whole prefill batches share one sim time) are
            # resolved exactly like the historical full-tree scan: first
            # minimum-``last_access`` leaf in its DFS order.  All entries at
            # this timestamp sit at the top of the heap; drain them, rank
            # the handful of live candidates by traversal position, and put
            # the losers back.
            tied: List[Tuple[float, int, RadixNode]] = []
            seen = {id(node)}
            while heap and heap[0][0] == last_access:
                entry = heappop(heap)
                competitor = entry[2]
                if id(competitor) not in seen and self._entry_live(last_access, competitor):
                    seen.add(id(competitor))
                    tied.append(entry)
                # Dead entries and duplicates of live ones are just dropped.
            if not tied:
                return node
            tied.append((last_access, entry_id, node))
            best = min(tied, key=lambda entry: self._dfs_order_key(entry[2]))
            for entry in tied:
                if entry is not best:
                    heappush(heap, entry)
            return best[2]
        return None

    @staticmethod
    def _dfs_order_key(node: RadixNode) -> Tuple[int, ...]:
        """Position of ``node`` in the historical scan's traversal order.

        The old full scan walked the tree with an explicit stack, visiting
        the *most recently added* sibling first at every level.  That order
        is reproduced here as a root-to-node tuple of reversed sibling
        ranks: lexicographically smaller keys are visited earlier.  Only
        computed for the few leaves tied on ``last_access``.
        """
        ranks: List[int] = []
        while node.parent is not None:
            siblings = list(node.parent.children.values())
            ranks.append(len(siblings) - 1 - siblings.index(node))
            node = node.parent
        ranks.reverse()
        return tuple(ranks)

    def _remove_leaf(self, node: RadixNode) -> int:
        assert node.parent is not None and not node.children
        parent = node.parent
        del parent.children[node.key[0]]
        self._total_tokens -= len(node.key)
        if node.lock_count == 0:
            self._evictable_tokens -= len(node.key)
        self._node_count -= 1
        self._note_leaf(parent)
        return len(node.key)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every unlocked entry (used by failure-recovery tests).

        A clear models *loss* (crash, reset), not memory pressure, so the
        demotion hook is bypassed: cleared entries never spill to tiers.
        """
        hook, self.on_evict = self.on_evict, None
        try:
            self.evict(self._total_tokens)
        finally:
            self.on_evict = hook

    def _iter_nodes(self) -> Iterable[RadixNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def check_invariants(self) -> None:
        """Verify structural invariants (used heavily by property tests)."""
        seen_tokens = 0
        seen_nodes = 0
        evictable = 0
        leaves: List[RadixNode] = []
        for node in self._iter_nodes():
            if node.is_root:
                if node.key != ():
                    raise AssertionError("root must have an empty key")
                continue
            if not node.key:
                raise AssertionError("non-root node with empty key")
            seen_tokens += node.num_tokens
            seen_nodes += 1
            if node.lock_count == 0:
                evictable += node.num_tokens
                if not node.children:
                    leaves.append(node)
            first = node.key[0]
            if node.parent.children.get(first) is not node:
                raise AssertionError("child index out of sync with key")
            # Sibling edges must not share a first token (radix property).
            siblings = [c for c in node.parent.children.values() if c is not node]
            for sibling in siblings:
                if sibling.key[0] == node.key[0]:
                    raise AssertionError("two sibling edges share a first token")
        if seen_tokens != self._total_tokens:
            raise AssertionError(
                f"token accounting mismatch: counted {seen_tokens}, recorded {self._total_tokens}"
            )
        if evictable != self._evictable_tokens:
            raise AssertionError(
                f"evictable accounting drift: counted {evictable}, recorded {self._evictable_tokens}"
            )
        if seen_nodes != self._node_count:
            raise AssertionError(
                f"node accounting mismatch: counted {seen_nodes}, recorded {self._node_count}"
            )
        if self._total_tokens > self.capacity_tokens:
            raise AssertionError("cache exceeded its capacity")
        visible = {
            id(node)
            for last_access, _, node in self._leaf_heap
            if last_access == node.last_access
            and not node.children
            and node.lock_count == 0
            and node.parent is not None
            and node.parent.children.get(node.key[0]) is node
        }
        for leaf in leaves:
            if id(leaf) not in visible:
                raise AssertionError("unlocked leaf missing from the eviction heap")
