"""The load balancer's prefix tree (§3.2, "SkyWalker with regional snapshot").

This is the *router-side* trie: the radix-trie core of
:mod:`repro.replica.kv_cache` (node layout, edge comparison, edge split and
lazy LRU leaf heap) plus routing **targets**, without any KV memory.  It
records which load-balancing targets have previously been sent requests
with a given prefix.  Each node stores the targets associated with the
prefix spelled by the path from the root; because a target is recorded on
*every* node along the inserted path, the target set of a child is always a
subset of its parent's, which is what makes the early-terminating
traversal in :meth:`PrefixTree.best_target` correct.

Memory is bounded: the tree enforces ``max_tokens`` and evicts the
earliest-inserted paths first, as described in the paper.

Hot-path design (the per-request costs this module is built around):

* **Eviction is O(log n)** through the shared leaf heap.  A node's
  ``last_access`` is a logical clock: the sequence number of the last
  insert that touched it, so the least recently inserted leaf goes first.
  One insert stamps every node on its path with one number, and two leaves
  can never share a number (nodes sharing one are ancestor/descendant by
  construction), so the heap's pop order is exactly the old full-scan
  "oldest leaf first" order.  Router nodes are never locked.
* **Lookups compare whole edges** (the shared edge comparison).  The
  availability set is used as-is when the caller already holds a set (or a
  dict keys view).
* **Tie-breaking is O(1)-deterministic**: each node maps every target to
  the sequence number of the last insert that recorded it there, and
  :meth:`best_target` picks the available target with the most recent
  sequence number.  Sequence numbers are unique per insert, so the choice
  never depends on iteration order or on ``repr`` of the targets (the old
  ``min(reachable, key=repr)`` ordered ``"r10"`` before ``"r9"``).
* **Target removal is a single bottom-up pass** instead of repeated
  full-tree prune sweeps.
"""

from __future__ import annotations

import itertools
from collections.abc import Set as _AbstractSet
from typing import Dict, Generic, Hashable, Iterable, Optional, Sequence, Tuple, TypeVar

from ..replica.kv_cache import _edge_overlap, _RadixTrie, _TrieNode

__all__ = ["PrefixTree", "PrefixMatch"]

T = TypeVar("T", bound=Hashable)


class _TargetNode(_TrieNode):
    __slots__ = ("targets",)

    #: Router nodes are never locked.
    lock_count = 0

    def __init__(self, key: Tuple[int, ...] = (), parent: Optional["_TargetNode"] = None) -> None:
        _TrieNode.__init__(self, key, parent)
        #: target -> sequence number of the last insert that recorded the
        #: target on this node (the deterministic tie-break key).
        self.targets: Dict[Hashable, int] = {}

    def _copy_marks(self, upper: "_TargetNode") -> None:
        upper.targets = dict(self.targets)


class PrefixMatch(Generic[T]):
    """Outcome of a :meth:`PrefixTree.best_target` lookup."""

    __slots__ = ("target", "matched_tokens", "prompt_tokens")

    def __init__(self, target: Optional[T], matched_tokens: int, prompt_tokens: int) -> None:
        self.target = target
        self.matched_tokens = matched_tokens
        self.prompt_tokens = prompt_tokens

    @property
    def hit_ratio(self) -> float:
        if self.prompt_tokens == 0:
            return 0.0
        return self.matched_tokens / self.prompt_tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<PrefixMatch target={self.target!r} matched={self.matched_tokens}/{self.prompt_tokens}>"


class PrefixTree(_RadixTrie, Generic[T]):
    """Compressed trie mapping token prefixes to routing targets."""

    def __init__(self, max_tokens: float = 200_000) -> None:
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        super().__init__(_TargetNode())
        self.max_tokens = max_tokens
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of non-root nodes currently in the tree."""
        return self._node_count

    def clear(self) -> None:
        """Drop every recorded prefix (all targets, all nodes)."""
        _RadixTrie.__init__(self, _TargetNode())

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, tokens: Sequence[int], target: T) -> None:
        """Record that ``target`` was chosen for a request with this prompt."""
        tokens = tuple(tokens)
        seq = next(self._seq)
        node = self.root
        node.targets[target] = seq
        idx = 0
        n = len(tokens)
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                child = _TargetNode(tokens[idx:], node)
                node.children[tokens[idx]] = child
                self._total_tokens += n - idx
                self._node_count += 1
                child.targets[target] = seq
                child.last_access = seq
                node = child
                break
            key = child.key
            klen = len(key)
            overlap = _edge_overlap(tokens, idx, key, klen, n)
            if overlap < klen:
                child = self._split(child, overlap)
            child.targets[target] = seq
            child.last_access = seq
            node = child
            idx += overlap
        # The insert ends on a node whose stamp changed: if it is a leaf,
        # record a fresh heap entry.
        self._note_leaf(node)
        self._enforce_capacity()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def best_target(
        self,
        tokens: Sequence[int],
        available: Iterable[T],
    ) -> PrefixMatch[T]:
        """The *available* target with the longest matching prefix.

        The traversal stops early as soon as the current node has no
        available target, because target sets only shrink down the tree
        (Listing 1, line 21 and the §3.2 discussion).  Among the targets
        recorded on the deepest matched node, the one recorded by the most
        recent insert wins — a deterministic O(1)-per-level tie-break.

        ``available`` is used as-is when it is already a set (or a dict
        keys view); pass one to keep the lookup allocation-free.
        """
        available_set = available if isinstance(available, _AbstractSet) else set(available)
        best_target: Optional[T] = None
        matched = 0
        node = self.root
        idx = 0
        n = len(tokens)
        # A target is only returned for a non-empty prefix match; with zero
        # overlap the caller falls back to its load-balancing tie-breaker.
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                break
            key = child.key
            klen = len(key)
            overlap = _edge_overlap(tokens, idx, key, klen, n)
            reachable = self._freshest_available(child.targets, available_set)
            if reachable is None:
                # No available target deeper down this path: terminate early.
                break
            matched = idx + overlap
            best_target = reachable
            if overlap < klen:
                break
            node = child
            idx += overlap
        if best_target is None:
            return PrefixMatch(None, 0, n)
        return PrefixMatch(best_target, matched, n)

    @staticmethod
    def _freshest_available(targets: Dict[T, int], available) -> Optional[T]:
        """The available target most recently recorded on a node, iterating
        over whichever of the two collections is smaller."""
        best: Optional[T] = None
        best_seq = -1
        if len(targets) <= len(available):
            for target, seq in targets.items():
                if seq > best_seq and target in available:
                    best = target
                    best_seq = seq
        else:
            for target in available:
                seq = targets.get(target)
                if seq is not None and seq > best_seq:
                    best = target
                    best_seq = seq
        return best

    def match_length(self, tokens: Sequence[int], target: Optional[T] = None) -> int:
        """Longest prefix of ``tokens`` recorded in the tree (optionally for
        one specific target); used by tie-breaking and by tests."""
        node = self.root
        idx = 0
        n = len(tokens)
        while idx < n:
            child = node.children.get(tokens[idx])
            if child is None:
                break
            key = child.key
            klen = len(key)
            overlap = _edge_overlap(tokens, idx, key, klen, n)
            if target is not None and target not in child.targets:
                break
            idx += overlap
            if overlap < klen:
                break
            node = child
        return idx

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def remove_target(self, target: T) -> None:
        """Erase every reference to ``target`` (replica/LB decommissioned).

        A single bottom-up pass: children are visited before their parents
        (reversed pre-order), so a node emptied by the removal is pruned
        before its parent is examined and cascading prunes need no repeated
        sweeps.
        """
        for node in reversed(list(self._iter_nodes())):
            node.targets.pop(target, None)
            if node.parent is not None and not node.children and not node.targets:
                self._remove_leaf(node)
        self._compact_heap()

    def _enforce_capacity(self) -> None:
        while self._total_tokens > self.max_tokens:
            victim = self._pop_lru_leaf()
            if victim is None:
                return
            self._remove_leaf(victim)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural checks used by the property-based tests."""
        for node in self._check_structure():
            parent = node.parent
            if parent.parent is None:
                continue
            if not node.targets.keys() <= parent.targets.keys():
                raise AssertionError("child target set is not a subset of its parent's")
            if node.last_access > parent.last_access:
                raise AssertionError("child was inserted after its parent's last touch")
