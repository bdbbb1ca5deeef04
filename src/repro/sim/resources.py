"""Shared-resource primitives built on top of the event kernel.

The SkyWalker simulation needs message queues (:class:`Store`) -- load
balancers and replicas communicate by putting request/response objects into
each other's stores.  Shared WAN edges queue messages in the network itself
(:mod:`repro.net.routed`), so no counted resource is needed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store"]


class StorePut(Event):
    """Event returned by :meth:`Store.put`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; its value is the item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """An unbounded (or bounded) FIFO queue of arbitrary items.

    ``put`` events succeed immediately unless the store is at ``capacity``;
    ``get`` events succeed as soon as an item is available, in FIFO order.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Request to add ``item``; returns an event."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` at once, creating no event.

        Only for unbounded stores, where a put never waits: it is
        :meth:`put` without the event nobody would wait on -- the
        fire-and-forget delivery of a message -- so a waiting getter is
        served exactly as :meth:`put` would serve it.
        """
        if self.capacity != float("inf"):
            raise ValueError("put_nowait needs an unbounded store")
        self.items.append(item)
        self._trigger()

    def get(self) -> StoreGet:
        """Request to remove and return the oldest item; returns an event."""
        return StoreGet(self)

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending put/get request from this store.

        Needed when the process waiting on the event was interrupted or
        killed: an abandoned ``get()`` left in the queue would otherwise
        consume the next item put into the store and hand it to an event
        nobody listens to any more (silently losing the item).  Returns
        ``True`` if the event was found and removed; events that do not
        belong to this store (or already triggered) are a ``False`` no-op,
        so callers may pass whatever their process was last waiting on.
        """
        if not isinstance(event, (StorePut, StoreGet)):
            return False
        for queue in (self._get_queue, self._put_queue):
            try:
                queue.remove(event)
                return True
            except ValueError:
                continue
        return False

    # ------------------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self) < self.capacity:
            self.items.append(event.item)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _trigger(self) -> None:
        """Match queued puts and gets until no more progress can be made."""
        progress = True
        while progress:
            progress = False
            while self._put_queue:
                head = self._put_queue[0]
                if head.triggered:
                    self._put_queue.popleft()
                    continue
                if self._do_put(head):
                    self._put_queue.popleft()
                    progress = True
                else:
                    break
            while self._get_queue:
                head = self._get_queue[0]
                if head.triggered:
                    self._get_queue.popleft()
                    continue
                if self._do_get(head):
                    self._get_queue.popleft()
                    progress = True
                else:
                    break
