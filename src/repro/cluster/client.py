"""Clients, the request tracker, and the DNS-backed frontend.

The evaluation drives the system with *closed-loop* clients: each client
executes one program at a time (§5.1), sending the next stage only after the
previous stage's responses arrived.  Clients talk to whatever load balancer
their region's DNS resolution points at; for centralized baselines that is a
single balancer in the US, for SkyWalker and the gateway baseline it is the
balancer in their own region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from ..net import Network
from ..network import GeoDNS
from ..sim import Environment, Event
from ..workloads.program import Program
from ..workloads.request import Request, RequestStatus

__all__ = [
    "RequestTracker",
    "Frontend",
    "ClosedLoopClient",
    "TraceReplayClient",
]


class BalancerEndpoint(Protocol):
    """Anything that can receive requests over the network."""

    name: str
    region: str

    @property
    def inbox(self):  # pragma: no cover - protocol definition only
        ...


class RequestTracker:
    """Bridges replica completion callbacks back to waiting clients.

    Every request gets a simulation event; replica completion listeners call
    :meth:`complete` which triggers the event so the issuing client can move
    on to its next stage.  :meth:`complete` also folds each finished request
    into the run totals the metrics layer reports, and the tracker keeps the
    list of finished requests that latency summaries are built from.
    """

    def __init__(self, env: Environment, *, retain_completed: bool = True) -> None:
        self.env = env
        self._events: Dict[int, Event] = {}
        self.completed: List[Request] = []
        self.failed: List[Request] = []
        #: When False (the streaming/macrobench mode), finished requests are
        #: only *counted* -- the ``completed``/``failed`` lists stay empty so
        #: a million-request day does not accumulate O(n) request objects.
        self.retain_completed = retain_completed
        self.num_completed = 0
        self.num_failed = 0
        #: Prompt plus generated tokens of completed requests.
        self.served_tokens = 0
        #: Generated tokens of completed requests.
        self.output_tokens = 0
        #: Completed requests served outside their origin region.
        self.num_cross_region = 0
        #: Completed requests forwarded LB-to-LB at least once.
        self.num_forwarded = 0
        #: Completed requests per replica name, in first-completion order.
        self.per_replica_completed: Dict[str, int] = {}

    def register(self, request: Request) -> Event:
        event = self.env.event()
        self._events[request.request_id] = event
        return event

    def complete(self, request: Request) -> None:
        self.num_completed += 1
        self.served_tokens += request.total_tokens
        self.output_tokens += request.generated_tokens
        if request.serving_region is not None and request.serving_region != request.region:
            self.num_cross_region += 1
        if request.forward_hops > 0:
            self.num_forwarded += 1
        replica = request.replica_name
        if replica:
            self.per_replica_completed[replica] = self.per_replica_completed.get(replica, 0) + 1
        if self.retain_completed:
            self.completed.append(request)
        event = self._events.pop(request.request_id, None)
        if event is not None and not event.triggered:
            event.succeed(request)

    def fail(self, request: Request) -> None:
        self.num_failed += 1
        if self.retain_completed:
            self.failed.append(request)
        event = self._events.pop(request.request_id, None)
        if event is not None and not event.triggered:
            event.succeed(request)

    @property
    def outstanding(self) -> int:
        return len(self._events)


class Frontend:
    """The client-facing entry point: DNS resolution plus request dispatch."""

    def __init__(self, env: Environment, network: Network, dns: Optional[GeoDNS] = None) -> None:
        self.env = env
        self.network = network
        self.dns = dns or GeoDNS(network.topology)
        self._balancers: Dict[str, BalancerEndpoint] = {}
        #: Requests dispatched on a stale DNS record because no balancer was
        #: healthy (total outage; only possible under fault injection).
        self.stale_dispatches = 0

    def register_balancer(self, balancer: BalancerEndpoint) -> None:
        """Expose a load balancer under the shared domain name."""
        self._balancers[balancer.name] = balancer
        self.dns.register(balancer.name, balancer.region)

    def set_health(self, balancer_name: str, healthy: bool) -> None:
        self.dns.set_health(balancer_name, healthy)

    def balancer(self, name: str) -> BalancerEndpoint:
        return self._balancers[name]

    def balancers(self) -> List[BalancerEndpoint]:
        return list(self._balancers.values())

    def dispatch(self, request: Request) -> None:
        """Resolve the nearest healthy balancer and send the request to it.

        When *no* balancer is healthy (a total outage under fault
        injection) the resolver cache keeps answering with the stale
        nearest record: the request is delivered to the dead balancer's
        inbox and waits there for recovery, rather than erroring out."""
        endpoint = self.dns.resolve(request.region)
        if endpoint is None:
            endpoint = self.dns.resolve_stale(request.region)
            if endpoint is None:
                raise RuntimeError("no load balancer registered")
            self.stale_dispatches += 1
        balancer = self._balancers[endpoint]
        request.status = RequestStatus.QUEUED_AT_LB
        request.ingress_region = balancer.region
        self.network.deliver(
            request,
            request.region,
            balancer.region,
            balancer.inbox,
            size_bytes=self.network.request_wire_bytes(request),
        )


class ClosedLoopClient:
    """A client that executes programs one stage at a time.

    Parameters
    ----------
    programs:
        Programs to run back to back.  Requests within a stage are issued
        concurrently; the next stage starts only after every response of the
        current stage has been received by the client.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        frontend: Frontend,
        tracker: RequestTracker,
        programs: Iterable[Program],
    ) -> None:
        self.env = env
        self.name = name
        self.region = region
        self.frontend = frontend
        self.tracker = tracker
        self.programs: List[Program] = list(programs)
        self.completed_programs = 0
        self.issued_requests = 0
        self.process = env.process(self._run())

    def _run(self):
        env = self.env
        for program in self.programs:
            for stage in program.stages:
                events = []
                for request in stage:
                    request.region = self.region
                    request.sent_time = env.now
                    request.arrival_time = env.now
                    events.append(self.tracker.register(request))
                    self.frontend.dispatch(request)
                    self.issued_requests += 1
                if events:
                    yield env.all_of(events)
                    # Responses travel back over the network before the client
                    # can act on them.
                    response_delay = max(
                        request.response_network_delay for request in stage
                    )
                    if response_delay > 0:
                        yield env.timeout(response_delay)
            self.completed_programs += 1


class TraceReplayClient:
    """An open-loop client replaying a timed request stream.

    ``timed_requests`` yields ``(arrival_time_s, Request)`` pairs with
    non-decreasing arrival times (absolute simulation seconds, e.g. a
    :class:`~repro.workloads.streams.DiurnalRequestStream`).  The stream is
    consumed lazily -- one request object lives at a time -- which is what
    lets a full-day, million-request diurnal trace drive the frontend in
    O(1) memory.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        region: str,
        frontend: Frontend,
        tracker: RequestTracker,
        timed_requests: Iterable[Tuple[float, Request]],
    ) -> None:
        self.env = env
        self.name = name
        self.region = region
        self.frontend = frontend
        self.tracker = tracker
        self.timed_requests = timed_requests
        self.issued_requests = 0
        self.process = env.process(self._run())

    def _run(self):
        env = self.env
        for arrival, request in self.timed_requests:
            if arrival > env.now:
                yield env.timeout(arrival - env.now)
            request.region = self.region
            request.sent_time = env.now
            request.arrival_time = env.now
            self.tracker.register(request)
            self.frontend.dispatch(request)
            self.issued_requests += 1
