"""The one load-balancer type every balancer family builds on.

The centralized §5.1 baselines, the GKE-Gateway baseline and SkyWalker
itself all share the same plumbing: an inbox, health state, replica
registration, outstanding-request accounting, the FIFO of accepted but
unplaced requests, and the final "stamp the request and hand it to the
network" dispatch step.  :class:`BalancerBase` implements that machinery;
the frontend, the controller, the fault injector, the experiment runner
and the system registry rely on nothing else.

Policy decisions (which replica, which region, when to push) stay in the
subclasses and their plug-in policy objects.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment, Event, Interrupt, Store
from ..workloads.request import Request, RequestStatus

__all__ = ["BalancerBase"]


class _Inbox(Store):
    """A balancer's inbox.  Its length is part of the queue size a balancer
    advertises to peer probes, so every put and get first settles the
    probes already landed (:meth:`~repro.sim.Environment.settle`)."""

    def put(self, item):
        self.env.settle()
        return super().put(item)

    def put_nowait(self, item) -> None:
        self.env.settle()
        super().put_nowait(item)

    def get(self):
        self.env.settle()
        return super().get()


class BalancerBase:
    """Shared state and behaviour for every balancer implementation.

    Subclasses provide a serving loop (the default one calls
    :meth:`select_replica`) and may hook :meth:`_register_replica` (extra
    per-replica wiring) and :meth:`_note_dispatch` (routing-state updates on
    the common dispatch path).  The default loop is the centralized §5.1
    baselines' blind push: each request goes to a replica on arrival, and
    :attr:`outstanding` (incremented at dispatch, decremented on
    completion) is what the Least Load and SGLang Router policies read.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        network: Network,
    ) -> None:
        self.env = env
        self.name = name
        self.region = region
        self.network = network
        self.inbox: Store = _Inbox(env)
        self.healthy = True
        self._replicas: Dict[str, ReplicaServer] = {}
        self.outstanding: Dict[str, int] = {}
        self._process = None
        #: Requests accepted but not yet placed, in arrival order (FCFS).
        self.queue: Deque[Request] = deque()
        #: Requests left behind by a failure, pending re-routing (by the
        #: controller for SkyWalker systems, by the fault injector
        #: otherwise).
        self.stranded: List[Request] = []
        self._replica_available_event: Optional[Event] = None
        #: Optional :class:`~repro.mem.TransferModel` for pushed KV
        #: prefixes.  When set (via ``MemoryConfig.push_*``), every dispatch
        #: serialises the payload's transfer time on top of the link delay:
        #: blind pushes ship the whole prompt's KV, prefix-aware selective
        #: pushes only the suffix the target is not known to hold.  ``None``
        #: (default) keeps dispatch latency payload-independent.
        self.push_transfer = None
        #: Selective-pushing policy (:mod:`repro.core.pushing`); ``None``
        #: pushes blindly.
        self.pushing_policy = None

        # Statistics.
        self.received_requests = 0
        self.dispatched_requests = 0
        self.pushed_prefix_tokens = 0
        self.pushed_prefix_bytes = 0
        self.push_transfer_s = 0.0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def add_replica(self, replica: ReplicaServer) -> None:
        if replica.name in self._replicas:
            return
        self._replicas[replica.name] = replica
        self.outstanding[replica.name] = 0
        replica.add_completion_listener(self._on_replica_complete)
        replica.add_health_listener(self._on_replica_health)
        self._register_replica(replica)
        if replica.healthy:
            self._signal_replica_available()

    def _register_replica(self, replica: ReplicaServer) -> None:
        """Subclass hook: extra wiring when a replica is attached."""

    def replicas(self) -> List[ReplicaServer]:
        return list(self._replicas.values())

    def healthy_replicas(self) -> List[ReplicaServer]:
        return [replica for replica in self._replicas.values() if replica.healthy]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._process is None:
            self._process = self.env.process(self._serve())

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("balancer-stop")
        self._process = None

    def submit(self, request: Request):
        """Hand a request to this balancer (returns the store-put event)."""
        return self.inbox.put(request)

    # ------------------------------------------------------------------
    # failure handling (used by the controller and the fault injector)
    # ------------------------------------------------------------------
    def fail(self) -> List[Request]:
        """Crash this balancer, returning the requests stuck in its queue
        and then its inbox.

        The stranded requests are also kept in :attr:`stranded` so whoever
        detects the failure later (the controller via health probing, or
        the fault injector) can re-route them via :meth:`take_stranded`.
        The serving loop's pending ``inbox.get()`` is cancelled explicitly:
        an abandoned getter would otherwise swallow the first request
        delivered to the dead balancer (clients keep sending during an
        outage -- stale DNS -- and those requests must survive in the inbox
        until recovery).
        """
        if not self.healthy:
            return []
        # Health and queues are read by peer probes in flight.
        self.env.settle()
        self.healthy = False
        stranded: List[Request] = list(self.queue)
        self.queue.clear()
        while self.inbox.items:
            stranded.append(self.inbox.items.popleft())
        process = self._process
        if process is not None and process.is_alive:
            target = process.target
            process.interrupt("balancer-failure")
            if target is not None:
                self.inbox.cancel(target)
        self._process = None
        self.stranded = list(stranded)
        return stranded

    def take_stranded(self) -> List[Request]:
        """Hand over (and clear) the requests stranded by a failure."""
        stranded = self.stranded
        self.stranded = []
        return list(stranded)

    def recover(self) -> None:
        """Restart a failed balancer's serving loop.

        Stranded requests nobody collected (no controller and no injector
        re-dispatch, e.g. a recovery racing failure detection) are put back
        at the head of the queue so they drain first, in arrival order.
        """
        if self.healthy:
            return
        self.env.settle()
        self.healthy = True
        if self.stranded:
            self.queue.extendleft(reversed(self.stranded))
            self.stranded = []
        self._process = self.env.process(self._serve())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def queue_size(self) -> int:
        return len(self.inbox.items) + len(self.queue)

    def _on_replica_complete(self, request: Request) -> None:
        name = request.replica_name
        if name in self.outstanding and self.outstanding[name] > 0:
            self.outstanding[name] -= 1

    # ------------------------------------------------------------------
    # no-healthy-replica parking
    # ------------------------------------------------------------------
    def _on_replica_health(self, replica: ReplicaServer) -> None:
        if replica.healthy:
            self._signal_replica_available()

    def _signal_replica_available(self) -> None:
        event = self._replica_available_event
        if event is not None and not event.triggered:
            event.succeed()

    def _wait_for_replica(self) -> Event:
        """An event triggered the next time a replica becomes available."""
        if self._replica_available_event is None or self._replica_available_event.triggered:
            self._replica_available_event = self.env.event()
        return self._replica_available_event

    # ------------------------------------------------------------------
    # serving loop
    # ------------------------------------------------------------------
    def _accept(self, request: Request) -> None:
        """Bookkeeping common to every balancer when a request arrives."""
        self.received_requests += 1
        if request.lb_arrival_time is None:
            request.lb_arrival_time = self.env.now
        request.status = RequestStatus.QUEUED_AT_LB
        if request.ingress_region is None:
            request.ingress_region = self.region

    def select_replica(
        self, request: Request, candidates: List[ReplicaServer]
    ) -> Optional[ReplicaServer]:
        """Pick the replica this request should run on (policy hook)."""
        raise NotImplementedError

    def _serve(self):
        """Default serving loop: accept, select, dispatch.

        When no replica can take a request it is *parked* in :attr:`queue`
        (FIFO) rather than re-queued behind newer arrivals, and the loop sleeps on
        a health-change event instead of busy-polling.  Parked requests
        drain before anything still sitting in the inbox, preserving
        arrival order across a full outage.
        """
        try:
            while True:
                if self.queue and self.healthy_replicas():
                    request = self.queue.popleft()
                else:
                    request = yield self.inbox.get()
                    self._accept(request)
                candidates = self.healthy_replicas()
                replica = self.select_replica(request, candidates) if candidates else None
                if replica is None:
                    self.queue.append(request)
                    yield self._wait_for_replica()
                    continue
                self._dispatch(request, replica)
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # the common dispatch path
    # ------------------------------------------------------------------
    def _dispatch(self, request: Request, replica: ReplicaServer) -> None:
        """Stamp routing metadata on the request and send it to ``replica``."""
        request.lb_dispatch_time = self.env.now
        request.serving_region = replica.region
        request.replica_name = replica.name
        request.status = RequestStatus.PENDING_AT_REPLICA
        request.response_network_delay = self.network.topology.one_way(
            replica.region, request.region
        )
        # Payload cost of the push, computed *before* _note_dispatch records
        # this prompt in the routing trees (else the request would always
        # appear fully resident on its own target).
        contended = self.network.contention_enabled
        extra_delay = 0.0
        pushed = 0
        if self.push_transfer is not None or contended:
            pushed = self._push_payload_tokens(request, replica)
        if self.push_transfer is not None and pushed > 0:
            extra_delay = self.push_transfer.delay_s(pushed)
            self.pushed_prefix_tokens += pushed
            self.pushed_prefix_bytes += self.push_transfer.bytes_for(pushed)
            self.push_transfer_s += extra_delay
        self.outstanding[replica.name] = self.outstanding.get(replica.name, 0) + 1
        self._note_dispatch(request, replica)
        if contended:
            # Contended WAN: the dispatch carries its wire size (request
            # plus any pushed KV prefix) and originates at the request's
            # home region, so the payload crosses the shared cross-region
            # edges exactly once even after LB-to-LB forwards.
            size_bytes = self.network.request_wire_bytes(
                request
            ) + self.network.push_wire_bytes(pushed)
            self.network.deliver(
                request,
                request.region,
                replica.region,
                replica.inbox,
                extra_delay=extra_delay,
                size_bytes=size_bytes,
            )
        else:
            self.network.deliver(
                request, self.region, replica.region, replica.inbox, extra_delay=extra_delay
            )
        self.dispatched_requests += 1

    def _push_payload_tokens(self, request: Request, replica: ReplicaServer) -> int:
        """KV tokens that must ship with this push (Fig. 6 cost model).

        A blind push (BP, and any balancer without a pushing policy) cannot
        know what the target holds, so it ships the whole prompt's KV; a
        selective, prefix-aware push ships only the suffix beyond what
        :meth:`_known_prefix_tokens` says is already resident.
        """
        policy = self.pushing_policy
        if policy is None:
            return request.prompt_len
        return policy.pushed_prefix_tokens(
            request.prompt_len, self._known_prefix_tokens(request, replica)
        )

    def _known_prefix_tokens(self, request: Request, replica: ReplicaServer) -> int:
        """Tokens of this prompt the balancer believes ``replica`` holds
        (subclasses with prefix-affinity state override)."""
        return 0

    def _note_dispatch(self, request: Request, replica: ReplicaServer) -> None:
        """Subclass hook: update routing state on the dispatch path."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name} replicas={len(self._replicas)}>"
