"""The fault injector: executes a :class:`FaultSchedule` against a live stack.

The injector is a thin deterministic orchestrator.  It walks the schedule's
events in time order inside one simulation process, resolves each fault's
``kind`` through the fault registry and hands itself -- the live stack --
to the registered applier.  Every injection leaves a :class:`FaultRecord`
behind; records (plus the controller's
:class:`~repro.core.controller.FailoverRecord` bookkeeping, when one runs)
are what the resilience metrics are computed from.

For schedules containing balancer faults on SkyWalker-family systems the
injector also builds and starts the paper's §4.2 management plane -- a
:class:`~repro.core.controller.ServiceController` -- so balancer failure,
detection, replica takeover, DNS re-pointing, stranded-request re-routing
and recovery are exercised end to end rather than stubbed.  Controller-less
systems (the centralized §5.1 baselines, the gateway) get the injector
itself as a minimal ops loop: DNS health flips and ``duration_s``-timed
recovery.

Every fault heals by its own ``duration_s`` (:meth:`FaultInjector.heal_after`);
``duration_s=None`` means the fault lasts for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from ..cluster.client import Frontend, RequestTracker
from ..cluster.deployment import Deployment
from ..core.balancer import SkyWalkerBalancer
from ..core.controller import ServiceController
from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment
from ..workloads.request import Request
from .schedule import FaultEvent, FaultSchedule, FaultsLike, resolve_fault_schedule
from .spec import (
    BalancerFailure,
    FaultSpec,
    LinkDegrade,
    LinkDown,
    LinkLatencySpike,
    RegionPartition,
    ReplicaCrash,
    ReplicaDegrade,
    register_fault,
    resolve_fault,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.interface import Balancer
    from ..metrics.resilience import ResilienceMetrics

__all__ = ["FaultRecord", "FaultInjector"]

@dataclass
class FaultRecord:
    """Bookkeeping for one injected fault event."""

    fault: FaultSpec
    injected_at: float
    #: When the fault healed (set by the applier / its follow-up process, or
    #: read off the controller's failover record at collection time).
    resolved_at: Optional[float] = None
    #: Affected entity (replica/balancer name, link description).
    target: str = ""
    #: Whether this record opens an outage window for the resilience
    #: metrics (gray failures, observability faults and no-ops do not).
    opens_window: bool = True
    #: Whether this record opens a *degraded* (gray, slow-but-alive)
    #: window -- tracked separately from hard outages: a degraded system
    #: still serves, so its goodput/TTFT are reported, not its downtime.
    opens_degraded_window: bool = False
    #: Requests this event stranded (pulled out of a dead balancer).
    stranded: int = 0


class FaultInjector:
    """Executes a fault schedule deterministically against one experiment.

    Create it after the system is built (it needs the live balancers) and
    call :meth:`start` before running the environment.  With an empty
    schedule the injector starts nothing at all, which is what keeps the
    zero-fault path bit-identical to a run without any fault machinery.
    """

    def __init__(
        self,
        env: Environment,
        schedule: FaultsLike,
        *,
        network: Network,
        deployment: Deployment,
        frontend: Frontend,
        balancers: Sequence["Balancer"],
        tracker: Optional[RequestTracker] = None,
    ) -> None:
        resolved = resolve_fault_schedule(schedule)
        if resolved is not None and not isinstance(resolved, FaultSchedule):
            raise TypeError(
                f"FaultInjector needs a concrete FaultSchedule, got "
                f"{type(resolved).__name__}; call "
                ".compile(duration_s=..., seed=...) first (run_experiment "
                "does this automatically)"
            )
        self.schedule = resolved if resolved is not None else FaultSchedule()
        self.env = env
        self.network = network
        self.deployment = deployment
        self.frontend = frontend
        self.balancers = list(balancers)
        self.tracker = tracker
        self.records: List[FaultRecord] = []
        self.controller: Optional[ServiceController] = None
        self._process = None
        self._started = False
        # Validate every kind up front: a typo should fail fast at setup,
        # not minutes into the simulation.
        for event in self.schedule.events:
            resolve_fault(event.fault.kind)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _wants_controller(self) -> bool:
        if not self.schedule.use_controller or not self.balancers:
            return False
        # Only a balancer failure needs the controller (and only on systems
        # whose balancers support one).
        if "balancer-fail" not in self.schedule.kinds():
            return False
        return all(isinstance(b, SkyWalkerBalancer) for b in self.balancers)

    def start(self) -> None:
        """Start the controller (when applicable) and the schedule driver."""
        if self._started or self.schedule.is_empty:
            return
        self._started = True
        if self._wants_controller():
            self.controller = ServiceController(
                self.env,
                self.network,
                self.frontend,
                health_probe_interval_s=self.schedule.controller_probe_interval_s,
                recovery_time_s=self.schedule.recovery_time_s,
            )
            for balancer in self.balancers:
                self.controller.register_balancer(balancer)
            self.controller.start()
        self._process = self.env.process(self._run())

    def _run(self):
        for event in self.schedule.sorted_events():
            delay = event.at_s - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        entry = resolve_fault(event.fault.kind)
        record = FaultRecord(fault=event.fault, injected_at=self.env.now)
        self.records.append(record)
        entry.factory(event.fault, self, record)

    # ------------------------------------------------------------------
    # the applier surface: lookups, actions and healing
    # ------------------------------------------------------------------
    def find_balancer_in(self, region: str) -> Optional["Balancer"]:
        """The (first) balancer deployed in ``region``, or ``None``.

        ``None`` is a legitimate outcome in cross-system sweeps: one fault
        schedule runs against every system variant, and a centralized
        baseline simply has no balancer in most regions -- there is nothing
        to kill there (its clients never depended on one).
        """
        for balancer in self.balancers:
            if balancer.region == region:
                return balancer
        return None

    def balancer_in(self, region: str) -> "Balancer":
        """The (first) balancer deployed in ``region`` (raising lookup)."""
        balancer = self.find_balancer_in(region)
        if balancer is None:
            regions = sorted({b.region for b in self.balancers})
            raise ValueError(
                f"no balancer deployed in region {region!r}; balancer regions: {regions}"
            )
        return balancer

    def replica(self, region: str, index: int) -> ReplicaServer:
        """The ``index``-th replica of ``region``, in deployment order."""
        replicas = self.deployment.replicas_in(region)
        if not 0 <= index < len(replicas):
            raise ValueError(
                f"region {region!r} has {len(replicas)} replicas; "
                f"index {index} is out of range"
            )
        return replicas[index]

    def controller_manages(self, balancer: "Balancer") -> bool:
        """Is this balancer's failure handled by a running controller?"""
        return self.controller is not None and balancer.name in self.controller.balancers

    def fail_request(self, request: Request) -> None:
        """Report an aborted request as failed (unblocks waiting clients)."""
        if self.tracker is not None:
            self.tracker.fail(request)

    def redispatch(self, requests: Sequence[Request]) -> None:
        """Re-issue stranded requests through the frontend (client retry:
        DNS re-resolves, so they reach the nearest healthy balancer)."""
        for request in requests:
            self.frontend.dispatch(request)

    def resolve(self, record: FaultRecord) -> None:
        """Mark a record as healed at the current simulation time."""
        if record.resolved_at is None:
            record.resolved_at = self.env.now

    def heal_after(
        self, delay: Optional[float], record: FaultRecord, undo: Callable[[], None]
    ) -> None:
        """Heal a fault ``delay`` seconds from now: run ``undo`` and resolve
        ``record``.  ``delay=None`` leaves the fault in place for the rest
        of the run (its window extends to the end)."""
        if delay is not None:
            self.env.process(self._heal(delay, record, undo))

    def _heal(self, delay: float, record: FaultRecord, undo: Callable[[], None]):
        yield self.env.timeout(delay)
        undo()
        self.resolve(record)

    # ------------------------------------------------------------------
    # resilience accounting
    # ------------------------------------------------------------------
    def outage_windows(self, duration_s: float) -> List[Tuple[float, float]]:
        """``(start, end)`` of every injected outage, clipped to the run.

        Controller-handled balancer failures read their recovery time off
        the controller's :class:`FailoverRecord`; unresolved faults extend
        to the end of the run.
        """
        windows: List[Tuple[float, float]] = []
        for record in self.records:
            if not record.opens_window:
                continue
            end = record.resolved_at
            if end is None and self.controller is not None and record.fault.kind == "balancer-fail":
                for failover in self.controller.failovers:
                    if (
                        failover.failed_balancer == record.target
                        and failover.failed_at >= record.injected_at
                        and failover.recovered_at is not None
                    ):
                        end = failover.recovered_at
                        record.resolved_at = end
                        break
            if end is None:
                end = duration_s
            start = min(record.injected_at, duration_s)
            end = min(end, duration_s)
            if end > start:
                windows.append((start, end))
        return sorted(windows)

    def degraded_windows(self, duration_s: float) -> List[Tuple[float, float]]:
        """``(start, end)`` of every gray-failure window, clipped to the run.

        Unlike :meth:`outage_windows`, these cover slow-but-alive periods
        (degraded replicas, lossy links): the system keeps serving, so the
        resilience metrics report goodput and TTFT *inside* the windows
        rather than counting them as downtime.
        """
        windows: List[Tuple[float, float]] = []
        for record in self.records:
            if not record.opens_degraded_window:
                continue
            end = record.resolved_at
            if end is None:
                end = duration_s
            start = min(record.injected_at, duration_s)
            end = min(end, duration_s)
            if end > start:
                windows.append((start, end))
        return sorted(windows)

    @property
    def failover_count(self) -> int:
        """Controller failovers handled (or injected balancer failures,
        for controller-less systems)."""
        if self.controller is not None:
            return len(self.controller.failovers)
        return sum(1 for r in self.records if r.fault.kind == "balancer-fail")

    @property
    def stranded_requests(self) -> int:
        """Total requests stranded by injected balancer failures."""
        return sum(record.stranded for record in self.records)

    def parked_requests(self) -> int:
        """Requests still queued/parked at balancers right now (end-of-run
        backlog left behind by the outages)."""
        total = 0
        for balancer in self.balancers:
            total += balancer.queue_size
            total += len(getattr(balancer, "stranded", ()))
        return total

    def resilience_metrics(self, *, duration_s: float) -> "ResilienceMetrics":
        """Aggregate this run's fault story into a metrics record (an
        injector built without a tracker reports no completions)."""
        from ..metrics.resilience import collect_resilience_metrics

        tracker = self.tracker if self.tracker is not None else RequestTracker(self.env)
        return collect_resilience_metrics(
            tracker=tracker,
            duration_s=duration_s,
            outage_windows=self.outage_windows(duration_s),
            degraded_windows=self.degraded_windows(duration_s),
            num_fault_events=len(self.records),
            failover_count=self.failover_count,
            stranded_requests=self.stranded_requests,
            parked_requests=self.parked_requests(),
            failed_requests=tracker.num_failed,
            dropped_messages=self.network.dropped_messages,
        )


# ----------------------------------------------------------------------
# built-in fault appliers
# ----------------------------------------------------------------------
def _partition_pairs(network: Network, a: str, b: Optional[str]) -> List[Tuple[str, str]]:
    if b is not None:
        return [(a, b)]
    return [(a, other) for other in network.topology.region_names() if other != a]


@register_fault(
    "replica-crash",
    spec=ReplicaCrash,
    description="Crash one replica; optional timed recovery",
)
def _apply_replica_crash(spec: ReplicaCrash, ctx: FaultInjector, record: FaultRecord) -> None:
    replica = ctx.replica(spec.region, spec.index)
    record.target = replica.name
    if not replica.healthy:
        # Crashing an already-dead replica is a recorded no-op: the
        # original crash's window already covers the outage.
        record.opens_window = False
        return
    for request in replica.fail():
        ctx.fail_request(request)
    ctx.heal_after(
        spec.duration_s, record, lambda: replica.recover(preserve_disk=spec.preserve_disk)
    )


@register_fault(
    "balancer-fail",
    spec=BalancerFailure,
    description="Kill a regional balancer (controller-driven failover when available)",
)
def _apply_balancer_failure(
    spec: BalancerFailure, ctx: FaultInjector, record: FaultRecord
) -> None:
    balancer = ctx.find_balancer_in(spec.region)
    if balancer is None:
        # Cross-system sweep semantics: this variant deploys no balancer in
        # the targeted region, so the fault is a recorded no-op for it.
        record.target = f"(no balancer in {spec.region})"
        record.opens_window = False
        return
    record.target = balancer.name
    if not balancer.healthy:
        record.opens_window = False
        return
    stranded = balancer.fail()
    record.stranded = len(stranded)
    if ctx.controller_manages(balancer):
        # Detection, DNS, replica takeover, stranded re-routing and timed
        # recovery are all the ServiceController's job from here (§4.2);
        # the stranded requests stay parked on the balancer until the
        # controller's next health probe picks the failure up.
        return
    # Controller-less systems: the injector plays ops.  DNS stops resolving
    # to the dead balancer and the stranded requests retry through the
    # frontend (reaching another region's balancer if one is healthy, or
    # queueing against the stale record during a total outage).
    ctx.frontend.set_health(balancer.name, False)
    ctx.redispatch(balancer.take_stranded())

    def recover() -> None:
        balancer.recover()
        ctx.frontend.set_health(balancer.name, True)

    ctx.heal_after(spec.duration_s, record, recover)


@register_fault(
    "region-partition",
    spec=RegionPartition,
    description="Block a region pair's link (or isolate one region entirely)",
)
def _apply_region_partition(
    spec: RegionPartition, ctx: FaultInjector, record: FaultRecord
) -> None:
    pairs = _partition_pairs(ctx.network, spec.a, spec.b)
    record.target = spec.a if spec.b is None else f"{spec.a}<->{spec.b}"
    for src, dst in pairs:
        ctx.network.set_link_blocked(src, dst, True)

    def heal() -> None:
        for src, dst in pairs:
            ctx.network.set_link_blocked(src, dst, False)

    ctx.heal_after(spec.duration_s, record, heal)


@register_fault(
    "link-latency-spike",
    spec=LinkLatencySpike,
    description="Add constant extra one-way latency to a link",
)
def _apply_link_latency_spike(
    spec: LinkLatencySpike, ctx: FaultInjector, record: FaultRecord
) -> None:
    # Additive contribution (not an overwrite): overlapping spikes sum and
    # each settle removes exactly its own surcharge, and a spike landing on
    # a partitioned link never disturbs the block -- latency and blocking
    # are independent per-edge states.
    record.target = f"{spec.a}<->{spec.b}"
    ctx.network.add_link_extra_latency(spec.a, spec.b, spec.extra_s)
    ctx.heal_after(
        spec.duration_s,
        record,
        lambda: ctx.network.remove_link_extra_latency(spec.a, spec.b, spec.extra_s),
    )


@register_fault(
    "replica-degrade",
    spec=ReplicaDegrade,
    description="Gray failure: slow a replica to a named performance level",
)
def _apply_replica_degrade(
    spec: ReplicaDegrade, ctx: FaultInjector, record: FaultRecord
) -> None:
    replica = ctx.replica(spec.region, spec.index)
    record.target = replica.name
    record.opens_window = False
    record.opens_degraded_window = True
    until = None if spec.duration_s is None else ctx.env.now + spec.duration_s
    token = replica.set_performance_level(spec.level, until=until)
    # Epoch-guarded: a newer degrade supersedes this timed restore.
    ctx.heal_after(spec.duration_s, record, lambda: replica.restore_performance(token))


@register_fault(
    "link-degrade",
    spec=LinkDegrade,
    description="Gray link failure: loss probability + extra jitter",
)
def _apply_link_degrade(
    spec: LinkDegrade, ctx: FaultInjector, record: FaultRecord
) -> None:
    record.target = f"{spec.a}<->{spec.b}"
    record.opens_window = False
    record.opens_degraded_window = True
    degrade = dict(
        loss_probability=spec.loss_probability,
        extra_jitter_fraction=spec.extra_jitter_fraction,
    )
    ctx.network.add_link_degrade(spec.a, spec.b, **degrade)
    ctx.heal_after(
        spec.duration_s, record, lambda: ctx.network.remove_link_degrade(spec.a, spec.b, **degrade)
    )


@register_fault(
    "link-down",
    spec=LinkDown,
    description="Take one physical link down (routes re-converge around it)",
)
def _apply_link_down(spec: LinkDown, ctx: FaultInjector, record: FaultRecord) -> None:
    # Downs a graph edge and the routing policy re-converges
    # deterministically (traffic re-routes where the topology allows).
    # Downs are reference-counted, so overlapping link-down faults compose
    # and each heal removes only its own down.
    record.target = f"{spec.a}<->{spec.b}"
    ctx.network.set_edge_down(spec.a, spec.b, True)
    ctx.heal_after(
        spec.duration_s, record, lambda: ctx.network.set_edge_down(spec.a, spec.b, False)
    )
