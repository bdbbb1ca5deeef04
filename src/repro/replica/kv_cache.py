"""Radix tries over token sequences: the shared trie core and the replica's
KV prefix cache.

The simulator keeps two compressed tries, and both are a
:class:`_RadixTrie`:

* the replica's :class:`RadixCache`, modelled after SGLang's RadixAttention
  cache: it decides how many prompt tokens of a new request are already
  resident (prefix hit -> shorter prefill).  The number of tokens stored in
  the tree is the cache's memory footprint, and running requests *lock*
  the nodes on their prompt path so the evictor can never free memory that
  an in-flight sequence still needs;
* SkyWalker's load-balancer prefix tree
  (:class:`repro.core.prefix_tree.PrefixTree`), which holds no KV memory but
  records which routing *targets* have seen which prefixes.

The core holds everything the two share: the node layout (``key``,
``parent``, ``children`` and the ``last_access`` stamp; the cache adds
``lock_count``, the router ``targets``), the edge comparison, the edge
split, the lazy LRU heap over unlocked leaves, node iteration and the
structural check.

Hot-path design:

* **LRU eviction is O(log n)** via a lazy min-heap over unlocked leaves
  keyed by ``(last_access, entry_id)``.  Every touch of a leaf pushes a
  fresh entry; stale entries (node re-touched, locked, grown children, or
  detached) are skipped at pop time.  The ``entry_id`` only keeps heap
  comparisons from reaching the nodes: leaves tied on ``last_access`` are
  ranked by the historical scan's DFS order, so how many entries a leaf
  has never changes which leaf is evicted.
* **Lookups compare whole edges**: a walk descends by offset into the
  caller's token sequence and compares each edge against one slice of the
  edge's length (at C speed), falling back to a token-by-token walk only on
  the edge where the sequence diverges or ends.
* **``evictable_tokens`` is O(1)**: the cache counts the tokens on locked
  edges, maintained by lock/unlock, and subtracts them from its total.  The
  replica's admission path calls it per request.
* **An admission walks its prompt twice**: one :meth:`RadixCache.match_prefix`
  and one :meth:`RadixCache.insert_path`, whose walk also returns the
  deepest node to lock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RadixNode", "RadixCache", "MatchResult"]


def _edge_overlap(
    tokens: Sequence[int], idx: int, key: Tuple[int, ...], klen: int, n: int
) -> int:
    """How many leading tokens of the edge ``key`` (of length ``klen``)
    ``tokens[idx:n]`` matches.

    Full-edge matches dominate repeat prefixes, so the whole edge is
    compared at C speed first (one transient slice; a list slice never
    equals the tuple key and takes the scalar walk).  The caller reached
    ``key`` through its first token, so the overlap is at least 1.
    """
    if klen <= n - idx and tokens[idx : idx + klen] == key:
        return klen
    limit = min(klen, n - idx)
    overlap = 1
    while overlap < limit and key[overlap] == tokens[idx + overlap]:
        overlap += 1
    return overlap


class _TrieNode:
    """One node of a radix trie.

    ``key`` is the token run on the edge from ``parent`` to this node; the
    root has an empty key and no parent.  ``last_access`` is the eviction
    stamp: the leaves with the smallest stamp are evicted first.  Each
    subclass adds its marks and, in ``_copy_marks``, copies them onto the
    upper half split off above a node.
    """

    __slots__ = ("key", "parent", "children", "last_access")

    def __init__(self, key: Tuple[int, ...] = (), parent: Optional["_TrieNode"] = None) -> None:
        self.key = key
        self.parent = parent
        self.children: Dict[int, "_TrieNode"] = {}
        self.last_access = 0.0

    @property
    def num_tokens(self) -> int:
        """Number of tokens stored on the edge leading to this node."""
        return len(self.key)

    @property
    def is_root(self) -> bool:
        return self.parent is None


class _RadixTrie:
    """The compressed-trie core shared by :class:`RadixCache` and
    :class:`~repro.core.prefix_tree.PrefixTree`: token and node accounting,
    the edge split, and the lazy LRU heap over unlocked leaves."""

    def __init__(self, root: _TrieNode) -> None:
        self.root = root
        self._total_tokens = 0
        self._node_count = 0
        #: Lazy LRU heap over unlocked leaves: ``(last_access, entry_id,
        #: node)``; see the module docstring.
        self._leaf_heap: List[Tuple[float, int, _TrieNode]] = []
        self._entry_ids = itertools.count()

    @property
    def total_tokens(self) -> int:
        """Number of tokens currently stored in the tree."""
        return self._total_tokens

    def _split(self, node: _TrieNode, offset: int) -> _TrieNode:
        """Split ``node``'s edge so that its first ``offset`` tokens become a
        new parent node.  ``node`` keeps its identity as the *lower* half so
        that references held to it (a running request's lock, a heap entry)
        keep covering the whole original edge.  The upper half copies the
        node's stamp and marks.  Returns the newly created upper node.
        """
        if not 0 < offset < len(node.key):
            raise ValueError("split offset must be strictly inside the edge")
        parent = node.parent
        upper = type(node)(node.key[:offset], parent)
        upper.last_access = node.last_access
        node._copy_marks(upper)
        parent.children[upper.key[0]] = upper
        node.key = node.key[offset:]
        node.parent = upper
        upper.children = {node.key[0]: node}
        self._node_count += 1
        # The lower half's heap entries stay valid: validation is by object
        # identity and current attachment, not by key.
        return upper

    # ------------------------------------------------------------------
    # LRU bookkeeping
    # ------------------------------------------------------------------
    def _note_leaf(self, node: _TrieNode, compact: bool = True) -> None:
        """Record an eviction-heap entry if ``node`` is an unlocked leaf.

        Called whenever a node's ``last_access`` changes or it (re)gains
        leaf/unlocked status; stale entries die lazily at pop time.  The
        eviction path passes ``compact=False``: its pops drop stale entries
        as fast as it pushes, and compacting would thrash as the tree drains.
        """
        if not node.children and node.lock_count == 0 and node.parent is not None:
            heappush(self._leaf_heap, (node.last_access, next(self._entry_ids), node))
            if compact:
                self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop stale entries, keeping the first-popping entry per leaf,
        once the heap clearly outgrows the live tree.

        A tree that never hits capacity never pops, so stale entries (and
        the detached nodes they reference) would otherwise pile up for the
        whole run.
        """
        heap = self._leaf_heap
        if len(heap) <= 64 or len(heap) <= 4 * self._node_count:
            return
        live: Dict[int, Tuple[float, int, _TrieNode]] = {}
        for entry in heap:
            if self._entry_live(entry[0], entry[2]):
                key = id(entry[2])
                previous = live.get(key)
                if previous is None or entry < previous:
                    live[key] = entry
        self._leaf_heap = list(live.values())
        heapify(self._leaf_heap)

    @staticmethod
    def _entry_live(last_access: float, node: _TrieNode) -> bool:
        """Is a heap entry still an accurate view of an unlocked leaf?"""
        return (
            last_access == node.last_access
            and not node.children
            and node.lock_count == 0
            and node.parent is not None
            and node.parent.children.get(node.key[0]) is node
        )

    def _pop_lru_leaf(self) -> Optional[_TrieNode]:
        """Pop the unlocked leaf with the smallest ``last_access``.

        Stale entries are discarded as they surface; amortised over the
        pushes that created them this is O(log n) per eviction.
        """
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
            tied: List[Tuple[float, int, _TrieNode]] = []
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
    def _dfs_order_key(node: _TrieNode) -> Tuple[int, ...]:
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

    def _remove_leaf(self, node: _TrieNode) -> int:
        """Detach the unlocked leaf ``node``; returns its token count."""
        assert node.parent is not None and not node.children and node.lock_count == 0
        parent = node.parent
        del parent.children[node.key[0]]
        self._total_tokens -= len(node.key)
        self._node_count -= 1
        self._note_leaf(parent, compact=False)
        return len(node.key)

    # ------------------------------------------------------------------
    def _iter_nodes(self) -> Iterable[_TrieNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def _check_structure(self) -> List[_TrieNode]:
        """The shared structural checks; returns the non-root nodes.

        Token and node counts match a recount, every edge is indexed under
        its first token (the radix property: no two sibling edges share a
        first token), and every unlocked leaf is visible to the heap.
        """
        if self.root.key != ():
            raise AssertionError("root must have an empty key")
        nodes: List[_TrieNode] = []
        counted_tokens = 0
        for node in self._iter_nodes():
            if node.parent is None:
                continue
            if not node.key:
                raise AssertionError("non-root node with empty key")
            if node.parent.children.get(node.key[0]) is not node:
                raise AssertionError("child index out of sync with key")
            counted_tokens += len(node.key)
            nodes.append(node)
        if counted_tokens != self._total_tokens:
            raise AssertionError(
                f"token accounting mismatch: counted {counted_tokens}, recorded {self._total_tokens}"
            )
        if len(nodes) != self._node_count:
            raise AssertionError(
                f"node accounting mismatch: counted {len(nodes)}, recorded {self._node_count}"
            )
        visible = {id(node) for stamp, _, node in self._leaf_heap if self._entry_live(stamp, node)}
        for node in nodes:
            if not node.children and node.lock_count == 0 and id(node) not in visible:
                raise AssertionError("unlocked leaf missing from the eviction heap")
        return nodes


class RadixNode(_TrieNode):
    """One node of the KV cache's radix tree; ``lock_count`` running
    requests pin it (and its ancestors) in memory."""

    __slots__ = ("lock_count",)

    def __init__(
        self,
        key: Tuple[int, ...] = (),
        parent: Optional["RadixNode"] = None,
    ) -> None:
        _TrieNode.__init__(self, key, parent)
        self.lock_count = 0

    def _copy_marks(self, upper: "RadixNode") -> None:
        # The lower half's lock holders all cover the upper half too.
        upper.lock_count = self.lock_count

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


class RadixCache(_RadixTrie):
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
        super().__init__(RadixNode())
        self.capacity_tokens = capacity_tokens
        #: Tokens on locked edges; the rest of the tree is evictable.
        self._locked_tokens = 0
        # Monotonic counters for cache-hit statistics.
        self.lookup_tokens = 0
        self.hit_tokens = 0
        #: Optional demotion hook ``(tokens, now)`` called for every
        #: pressure-eviction victim *before* it is removed -- the tiered KV
        #: store registers itself here so victims spill to lower tiers
        #: instead of vanishing.  ``None`` (default) keeps the legacy
        #: drop-on-evict behaviour, with zero extra work on the hot path.
        self.on_evict = None

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Lifetime token-level cache hit rate of ``match_prefix`` calls."""
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens / self.lookup_tokens

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
        nodes: List[RadixNode] = []
        idx = 0
        n = len(tokens)
        if not isinstance(tokens, tuple):
            tokens = tuple(tokens)
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                break
            klen = len(child.key)
            overlap = _edge_overlap(tokens, idx, child.key, klen, n)
            idx += overlap
            child.last_access = now
            if not child.children:
                self._note_leaf(child)
            if overlap < klen:
                # Partial edge match: stop here (the caller may insert to
                # split the edge).
                break
            nodes.append(child)
            node = child
        if record:
            self.lookup_tokens += n
            self.hit_tokens += idx
        return MatchResult(matched_tokens=idx, nodes=nodes)

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
        return self.insert_path(tokens, now)[0]

    def insert_path(
        self, tokens: Sequence[int], now: float = 0.0
    ) -> Tuple[int, int, Optional[RadixNode]]:
        """:meth:`insert`, also returning where the inserted path ends.

        Returns ``(added, matched, node)``: the tokens newly added, and the
        ``matched_tokens`` and ``last_node`` that ``match_prefix(tokens,
        record=False)`` would return right after the insert.  Every edge the
        walk ends inside is split, so the cached part of ``tokens`` always
        ends on a node boundary; ``node`` is that deepest node (``None`` when
        nothing of ``tokens`` is cached) and ``matched`` its depth.  The walk
        stamps the same ``last_access`` values such a lookup would, so the
        admission path does not need that second walk.
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
                self._node_count += 1
                added += take
                self._note_leaf(new_node)
                node = new_node
                idx += take
                break
            klen = len(child.key)
            overlap = _edge_overlap(tokens, idx, child.key, klen, n)
            child.last_access = now
            if not child.children:
                self._note_leaf(child)
            # Split the edge at the divergence point.
            node = child if overlap == klen else self._split(child, overlap)
            idx += overlap
        return added, idx, (None if node is self.root else node)

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    def lock(self, node: Optional[RadixNode]) -> None:
        """Pin ``node`` and all of its ancestors (a running request's prefix)."""
        while node is not None and not node.is_root:
            if node.lock_count == 0:
                self._locked_tokens += len(node.key)
            node.lock_count += 1
            node = node.parent

    def unlock(self, node: Optional[RadixNode]) -> None:
        """Release a previous :meth:`lock` on ``node``'s path."""
        while node is not None and not node.is_root:
            if node.lock_count <= 0:
                raise RuntimeError("unlock without matching lock")
            node.lock_count -= 1
            if node.lock_count == 0:
                self._locked_tokens -= len(node.key)
                self._note_leaf(node)
            node = node.parent

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evictable_tokens(self) -> int:
        """Tokens stored on unlocked edges (free-able memory)."""
        return self._total_tokens - self._locked_tokens

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
                self.on_evict(victim.path_tokens(), now)
            evicted += self._remove_leaf(victim)
        return evicted

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

    def check_invariants(self) -> None:
        """Verify structural invariants (used heavily by property tests)."""
        nodes = self._check_structure()
        locked = sum(len(node.key) for node in nodes if node.lock_count)
        if locked != self._locked_tokens:
            raise AssertionError(
                f"locked accounting drift: counted {locked}, recorded {self._locked_tokens}"
            )
        if self._total_tokens > self.capacity_tokens:
            raise AssertionError("cache exceeded its capacity")
