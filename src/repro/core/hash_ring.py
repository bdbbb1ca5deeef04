"""Ring-based consistent hashing (Karger et al. / Chord style, §3.2).

SkyWalker-CH hashes a user-provided key (user id, session id) onto a ring of
virtual nodes; each virtual node maps to a load-balancing target (a replica,
or a remote load balancer in the upper routing layer).  Two extensions over
textbook consistent hashing are implemented exactly as the paper describes:

* hashing happens at **both** layers of the two-layer design, and
* virtual nodes whose target is currently unavailable are **skipped**, with
  the lookup continuing clockwise around the ring (Listing 1, line 26).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Generic, Hashable, Iterable, List, Optional, Set, TypeVar

__all__ = ["ConsistentHashRing"]

T = TypeVar("T", bound=Hashable)


def _hash64(value: str) -> int:
    """Stable 64-bit hash (md5-based so results do not depend on PYTHONHASHSEED)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing(Generic[T]):
    """A consistent-hash ring with virtual nodes.

    Parameters
    ----------
    virtual_nodes:
        Number of ring positions per target.  More virtual nodes give a more
        uniform key distribution at the cost of a larger ring.
    """

    def __init__(self, targets: Iterable[T] = (), *, virtual_nodes: int = 64) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        self.virtual_nodes = virtual_nodes
        self._ring: List[int] = []
        self._owner: Dict[int, T] = {}
        self._targets: Set[T] = set()
        for target in targets:
            self.add_target(target)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._targets)

    def __contains__(self, target: T) -> bool:
        return target in self._targets

    @property
    def targets(self) -> Set[T]:
        return set(self._targets)

    def add_target(self, target: T) -> None:
        """Add ``target`` with ``virtual_nodes`` positions on the ring."""
        if target in self._targets:
            return
        self._targets.add(target)
        for index in range(self.virtual_nodes):
            position = _hash64(f"{target!r}#{index}")
            # Resolve the (extremely unlikely) collision deterministically.
            while position in self._owner:
                position = (position + 1) % (1 << 64)
            self._owner[position] = target
            bisect.insort(self._ring, position)

    def remove_target(self, target: T) -> None:
        """Remove every virtual node belonging to ``target``."""
        if target not in self._targets:
            return
        self._targets.discard(target)
        positions = [pos for pos, owner in self._owner.items() if owner == target]
        for position in positions:
            del self._owner[position]
            index = bisect.bisect_left(self._ring, position)
            del self._ring[index]

    # ------------------------------------------------------------------
    def lookup(self, key: str, available: Optional[Iterable[T]] = None) -> Optional[T]:
        """Map ``key`` to a target, skipping unavailable virtual nodes.

        ``available`` restricts the result to a subset of targets (the
        candidate set *C* in Algorithm 1); when omitted every target is
        eligible.  Returns ``None`` only when no eligible target exists.
        """
        if not self._ring:
            return None
        allowed: Optional[Set[T]] = None
        if available is not None:
            allowed = set(available) & self._targets
            if not allowed:
                return None
        start = bisect.bisect_left(self._ring, _hash64(key)) % len(self._ring)
        for offset in range(len(self._ring)):
            position = self._ring[(start + offset) % len(self._ring)]
            target = self._owner[position]
            if allowed is None or target in allowed:
                return target
        return None
