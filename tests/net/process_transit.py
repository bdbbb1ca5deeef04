"""The network whose every contended message is a simulation process.

:class:`ProcessTransitNetwork` is the reference the callback transit is
checked against (``test_callback_transit.py``): each cross-region message on
a contended network is a generator process that queues for every
finite-bandwidth edge on its path through a counted :class:`Resource`,
transmits, releases, propagates, and finally ``yield``\\ s ``inbox.put`` --
the transport as it was before transits became timer callbacks.  It shares
everything else (routes, faults, sampling, wire sizes) with
:class:`~repro.net.Network`.

:class:`Resource` and :class:`ResourceRequest` lived in :mod:`repro.sim`
until nothing in the simulator used them any more; they stay here, with
the oracle that still does.
"""

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.net import Network
from repro.sim import Environment, Event, Store


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

    def __init__(self, env: Environment, capacity: int = 1) -> None:
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


class ProcessTransitNetwork(Network):
    """A :class:`~repro.net.Network` running one process per contended
    message, over one :class:`Resource` per finite-bandwidth edge."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._resources: Dict[tuple, Resource] = {}
        super().__init__(*args, **kwargs)

    def _start_transit(self, item, src, dst, inbox, extra_delay, size_bytes) -> None:
        self.env.process(self._transit(item, src, dst, inbox, extra_delay, size_bytes))

    def _edge_queue(self, edge) -> Resource:
        queue = self._resources.get(edge)
        if queue is None:
            queue = self._resources[edge] = Resource(self.env, capacity=1)
        return queue

    def _transit(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Optional[Store],
        extra_delay: float,
        size_bytes: float,
    ):
        if extra_delay > 0:
            yield self.env.timeout(extra_delay)
        for edge, latency, _ in self._legs[(src, dst)]:
            bandwidth = self.graph.link(*edge).bandwidth_bytes_per_s
            if bandwidth > 0:
                queue = self._edge_queue(edge)
                grant = queue.request()
                yield grant
                if size_bytes > 0:
                    yield self.env.timeout(size_bytes / bandwidth)
                # No ``finally:`` (nothing interrupts a transit): GC closing a
                # finished run's transit would release into its dead env.
                queue.release(grant)
            yield self.env.timeout(self._jittered(self._faulted(edge, latency)))
        if inbox is not None:
            yield inbox.put(item)
