"""The load balancer's prefix tree (§3.2, "SkyWalker with regional snapshot").

This is the *router-side* structure, distinct from the replica's KV radix
cache: it does not hold any KV memory, it records which load-balancing
**targets** have previously been sent requests with a given prefix.  Each
node stores the targets associated with the prefix spelled by the path from
the root; because a target is recorded on *every* node along the inserted
path, the target set of a child is always a subset of its parent's, which
is what makes the early-terminating traversal in
:meth:`PrefixTree.best_target` correct.

Memory is bounded: the tree enforces ``max_tokens`` and evicts the
earliest-inserted paths first, as described in the paper.

Hot-path design (the per-request costs this module is built around):

* **Eviction is O(log n)** via a lazy min-heap over leaves keyed by
  ``insert_seq``.  Heap entries are never removed eagerly; an entry is
  simply skipped at pop time when its node has since been touched, grown
  children, or been detached.  One insert assigns a single sequence number
  to every node on its path, and two leaves can never share a sequence
  number (nodes sharing one are ancestor/descendant by construction), so
  the heap's pop order is exactly the old full-scan "oldest leaf first"
  order.
* **Lookups compare whole edges**: the traversal walks the caller's token
  sequence with an offset and compares each edge against one slice of the
  length of that edge (one transient allocation per edge, at C speed),
  falling back to a token-by-token walk only on the edge where the prompt
  diverges or ends.  The availability set is used as-is when the caller
  already holds a set (or a dict keys view).
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
from heapq import heapify, heappop, heappush
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = ["PrefixTree", "PrefixMatch"]

T = TypeVar("T", bound=Hashable)


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


class _TrieNode(Generic[T]):
    __slots__ = ("key", "parent", "children", "targets", "insert_seq")

    def __init__(self, key: Tuple[int, ...] = (), parent: Optional["_TrieNode[T]"] = None) -> None:
        self.key = key
        self.parent = parent
        self.children: Dict[int, "_TrieNode[T]"] = {}
        #: target -> sequence number of the last insert that recorded the
        #: target on this node (the deterministic tie-break key).
        self.targets: Dict[T, int] = {}
        #: Sequence number of the most recent insert that touched this node;
        #: eviction removes the leaves with the smallest value first.
        self.insert_seq = 0

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def num_tokens(self) -> int:
        return len(self.key)


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


class PrefixTree(Generic[T]):
    """Compressed trie mapping token prefixes to routing targets."""

    def __init__(self, max_tokens: float = 200_000) -> None:
        if max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        self.max_tokens = max_tokens
        self.root: _TrieNode[T] = _TrieNode()
        self._total_tokens = 0
        self._node_count = 0
        self._seq = itertools.count(1)
        #: Lazy eviction heap: ``(insert_seq, entry_id, node)``.  Entries go
        #: stale instead of being removed; :meth:`_pop_oldest_leaf` validates.
        self._leaf_heap: List[Tuple[int, int, _TrieNode[T]]] = []
        self._entry_ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def total_tokens(self) -> int:
        return self._total_tokens

    def __len__(self) -> int:
        """Number of non-root nodes currently in the tree."""
        return self._node_count

    def clear(self) -> None:
        """Drop every recorded prefix (all targets, all nodes)."""
        self.root = _TrieNode()
        self._total_tokens = 0
        self._node_count = 0
        self._leaf_heap = []

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
                child = _TrieNode(key=tokens[idx:], parent=node)
                node.children[tokens[idx]] = child
                self._total_tokens += n - idx
                self._node_count += 1
                child.targets[target] = seq
                child.insert_seq = seq
                self._push_leaf_entry(seq, child)
                node = None  # terminal already recorded in the heap
                break
            key = child.key
            klen = len(key)
            overlap = _edge_overlap(tokens, idx, key, klen, n)
            if overlap < klen:
                child = self._split(child, overlap)
            child.targets[target] = seq
            child.insert_seq = seq
            node = child
            idx += overlap
        if node is not None and not node.children and node.parent is not None:
            # The insert terminated on an existing node that is (still) a
            # leaf: its eviction key changed, so record a fresh heap entry.
            self._push_leaf_entry(seq, node)
        self._enforce_capacity()

    def _push_leaf_entry(self, seq: int, node: _TrieNode[T]) -> None:
        heap = self._leaf_heap
        heappush(heap, (seq, next(self._entry_ids), node))
        # Without capacity pressure nothing ever pops, so stale entries
        # would otherwise accumulate (and pin detached nodes) for the whole
        # run; compact once the heap clearly outgrows the live tree.
        if len(heap) > 64 and len(heap) > 4 * self._node_count:
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop stale entries, keeping the first-popping entry per leaf."""
        live: Dict[int, Tuple[int, int, _TrieNode[T]]] = {}
        for entry in self._leaf_heap:
            seq, _, node = entry
            if (
                seq == node.insert_seq
                and not node.children
                and node.parent is not None
                and node.parent.children.get(node.key[0]) is node
            ):
                previous = live.get(id(node))
                if previous is None or entry < previous:
                    live[id(node)] = entry
        self._leaf_heap = list(live.values())
        heapify(self._leaf_heap)

    def _split(self, node: _TrieNode[T], offset: int) -> _TrieNode[T]:
        """Split ``node`` so its first ``offset`` tokens become a new parent.

        Returns the new upper node (which carries the shared prefix).
        """
        parent = node.parent
        assert parent is not None and 0 < offset < len(node.key)
        upper: _TrieNode[T] = _TrieNode(key=node.key[:offset], parent=parent)
        upper.targets = dict(node.targets)
        upper.insert_seq = node.insert_seq
        parent.children[upper.key[0]] = upper
        node.key = node.key[offset:]
        node.parent = upper
        upper.children = {node.key[0]: node}
        self._node_count += 1
        return upper

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
        order: List[_TrieNode[T]] = []
        stack: List[_TrieNode[T]] = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children.values())
        heap = self._leaf_heap
        entry_ids = self._entry_ids
        promoted: Dict[int, _TrieNode[T]] = {}
        for node in reversed(order):
            node.targets.pop(target, None)
            if node.parent is None:
                continue
            if not node.children and not node.targets:
                del node.parent.children[node.key[0]]
                self._total_tokens -= len(node.key)
                self._node_count -= 1
                promoted[id(node.parent)] = node.parent
        # Surviving leaves keep their valid heap entries (removing a target
        # changes neither insert_seq nor attachment); only nodes *promoted*
        # to leaves by the pruning need fresh entries.  Promoted parents may
        # themselves have been pruned later in the pass, so re-check.
        for parent in promoted.values():
            if (
                parent.parent is not None
                and not parent.children
                and parent.parent.children.get(parent.key[0]) is parent
            ):
                heappush(heap, (parent.insert_seq, next(entry_ids), parent))
        if len(heap) > 64 and len(heap) > 4 * self._node_count:
            self._compact_heap()

    def _enforce_capacity(self) -> None:
        while self._total_tokens > self.max_tokens:
            victim = self._pop_oldest_leaf()
            if victim is None:
                return
            parent = victim.parent
            assert parent is not None
            del parent.children[victim.key[0]]
            self._total_tokens -= len(victim.key)
            self._node_count -= 1
            if parent.parent is not None and not parent.children:
                # Raw push: eviction pops keep the heap clean on this path,
                # and the compaction trigger would thrash as the tree drains.
                heappush(
                    self._leaf_heap,
                    (parent.insert_seq, next(self._entry_ids), parent),
                )

    def _pop_oldest_leaf(self) -> Optional[_TrieNode[T]]:
        """Pop the attached leaf with the smallest ``insert_seq``.

        Stale entries (node re-touched, grew children, or already detached)
        are discarded as they surface; amortised over the pushes that
        created them this is O(log n) per eviction.
        """
        heap = self._leaf_heap
        while heap:
            seq, _, node = heappop(heap)
            if (
                seq == node.insert_seq
                and not node.children
                and node.parent is not None
                and node.parent.children.get(node.key[0]) is node
            ):
                return node
        return None

    def _iter_nodes(self) -> Iterable[_TrieNode[T]]:
        stack: List[_TrieNode[T]] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural checks used by the property-based tests."""
        counted_tokens = 0
        counted_nodes = 0
        leaves: List[_TrieNode[T]] = []
        for node in self._iter_nodes():
            if node.is_root:
                continue
            counted_tokens += node.num_tokens
            counted_nodes += 1
            assert node.parent is not None
            if not node.parent.is_root:
                if not set(node.targets).issubset(node.parent.targets):
                    raise AssertionError("child target set is not a subset of its parent's")
                if node.insert_seq > node.parent.insert_seq:
                    raise AssertionError("child was inserted after its parent's last touch")
            if not node.children:
                leaves.append(node)
        if counted_tokens != self._total_tokens:
            raise AssertionError(
                f"token accounting mismatch: counted {counted_tokens}, recorded {self._total_tokens}"
            )
        if counted_nodes != self._node_count:
            raise AssertionError(
                f"node accounting mismatch: counted {counted_nodes}, recorded {self._node_count}"
            )
        visible = {
            id(node)
            for seq, _, node in self._leaf_heap
            if seq == node.insert_seq
            and not node.children
            and node.parent is not None
            and node.parent.children.get(node.key[0]) is node
        }
        for leaf in leaves:
            if id(leaf) not in visible:
                raise AssertionError("leaf missing from the eviction heap")
