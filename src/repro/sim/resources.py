"""Shared-resource primitives built on top of the event kernel.

The SkyWalker simulation mostly needs message queues (:class:`Store`) --
load balancers and replicas communicate by putting request/response objects
into each other's stores -- plus a small counted :class:`Resource` used by a
few tests and examples.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, List, Optional, Tuple, TYPE_CHECKING

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store", "PriorityStore", "Resource"]


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
        self._add(item)
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
    def _add(self, item: Any) -> None:
        self.items.append(item)

    def _do_put(self, event: StorePut) -> bool:
        if len(self) < self.capacity:
            self._add(event.item)
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


class PriorityStore(Store):
    """A store that yields the smallest item first.

    Items must be orderable; a common pattern is ``(priority, seq, payload)``
    tuples.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        super().__init__(env, capacity)
        self._heap: List[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _add(self, item: Any) -> None:
        heapq.heappush(self._heap, item)

    def _do_get(self, event: StoreGet) -> bool:
        if self._heap:
            event.succeed(heapq.heappop(self._heap))
            return True
        return False


class ResourceRequest(Event):
    """Event returned by :meth:`Resource.request`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with ``capacity`` concurrent users."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.env = env
        self.capacity = capacity
        self.users: List[ResourceRequest] = []
        self._queue: Deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        """Queue a request for one unit of the resource."""
        return ResourceRequest(self)

    def release(self, request: ResourceRequest) -> None:
        """Release a previously granted request."""
        if request in self.users:
            self.users.remove(request)
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            request = self._queue.popleft()
            if request.triggered:
                continue
            self.users.append(request)
            request.succeed()
