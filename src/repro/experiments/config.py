"""Experiment configuration objects.

Every end-to-end run is described by three pieces:

* a *system* description -- a typed spec from the system registry
  (:class:`~repro.experiments.registry.SystemSpec` subclasses such as
  ``SkyWalkerConfig`` or ``GatewayConfig``),
* a :class:`ClusterConfig` -- how many replicas per region, which model
  profile they run, and how their KV memory is organised
  (:class:`~repro.mem.MemoryConfig`), and
* a :class:`WorkloadSpec` -- the programs each region's clients execute,
  and the timed requests its open-loop clients replay.

Keeping the description declarative lets the benchmark harness sweep systems
and workloads without duplicating wiring code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..faults import FaultsLike
from ..mem import MemoryConfig
from ..net import NetConfig
from ..replica import LLAMA_8B_L4, ModelProfile
from ..workloads.program import Program
from ..workloads.request import Request
from ..workloads.streams import DiurnalRequestStream
from .registry import SystemSpec

__all__ = [
    "ClusterConfig",
    "TimedRequestsLike",
    "WorkloadSpec",
    "ExperimentConfig",
    "SYSTEM_KINDS",
    "BASELINE_SYSTEMS",
    "ALL_SYSTEMS",
]

#: The seed catalogue of system kinds (the paper's §5.1 line-up).  The
#: authoritative, extensible list lives in the system registry --
#: see :func:`repro.experiments.registry.registered_system_kinds`.
SYSTEM_KINDS = (
    "gke-gateway",
    "round-robin",
    "least-load",
    "consistent-hash",
    "sglang-router",
    "skywalker-ch",
    "skywalker",
    "region-local",
)

#: The baselines of Fig. 8 in presentation order.
BASELINE_SYSTEMS = (
    "gke-gateway",
    "round-robin",
    "least-load",
    "consistent-hash",
    "sglang-router",
)

#: Full Fig. 8 line-up.
ALL_SYSTEMS = BASELINE_SYSTEMS + ("skywalker-ch", "skywalker")


@dataclass(frozen=True)
class ClusterConfig:
    """Replica fleet description."""

    replicas_per_region: Dict[str, int] = field(
        default_factory=lambda: {"us": 4, "eu": 4, "asia": 4}
    )
    profile: ModelProfile = LLAMA_8B_L4
    #: The KV memory model applied to every replica (and, via its
    #: ``push_*`` knobs, to the balancers' dispatch path).  The default
    #: ``MemoryConfig()`` is the flat legacy model.
    memory: MemoryConfig = MemoryConfig()
    record_utilization: bool = False
    #: The WAN (:class:`~repro.net.NetConfig`): graph topology and
    #: shared-link bandwidth contention.  The default is the uncontended
    #: full mesh over the region latency matrix.
    network: NetConfig = NetConfig()

    def __post_init__(self) -> None:
        for name, kind in (("network", NetConfig), ("memory", MemoryConfig)):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(
                    f"ClusterConfig.{name} must be a {kind.__name__}, "
                    f"got {getattr(self, name)!r}"
                )

    @property
    def total_replicas(self) -> int:
        return sum(self.replicas_per_region.values())


#: A region's open-loop traffic: ``(arrival_s, Request)`` pairs with
#: non-decreasing arrival times, as a materialized list or a lazy,
#: re-instantiable :class:`~repro.workloads.streams.DiurnalRequestStream`.
TimedRequestsLike = Union[List[Tuple[float, Request]], DiurnalRequestStream]


@dataclass
class WorkloadSpec:
    """Programs and client concurrency per region, plus open-loop traffic.

    ``programs_by_region`` holds each region's closed-loop programs, dealt
    round-robin to its clients.  ``timed_requests_by_region`` adds open-loop
    traffic: each region's timed requests are replayed by one
    :class:`~repro.cluster.TraceReplayClient` at their arrival times,
    whatever the closed-loop clients do.
    """

    name: str
    programs_by_region: Dict[str, List[Program]]
    clients_per_region: Dict[str, int]
    #: Which identity field the workload's natural consistent-hashing key is
    #: ("user" for chat datasets, "session" for Tree-of-Thoughts questions).
    hash_key: str = "user"
    timed_requests_by_region: Dict[str, TimedRequestsLike] = field(default_factory=dict)

    @property
    def client_regions(self) -> List[str]:
        """Every region that sends traffic, closed-loop regions first."""
        return list(dict.fromkeys([*self.clients_per_region, *self.timed_requests_by_region]))

    @property
    def total_requests(self) -> int:
        """Total requests across all programs (closed-loop traffic only; the
        timed requests of ``timed_requests_by_region`` are not counted)."""
        return sum(
            program.num_requests
            for programs in self.programs_by_region.values()
            for program in programs
        )

    def fresh_copy(self) -> "WorkloadSpec":
        """A copy with pristine programs/requests, safe to run again.

        Requests are mutable (timestamps, routing state), so a workload that
        has been through ``run_experiment`` cannot be reused directly; this
        is what lets ``run_sweep`` build a workload once and replay it
        across every system variant.  Program and request lists are
        deep-cloned; a :class:`~repro.workloads.streams.DiurnalRequestStream`
        builds pristine requests on every iteration, so it is reused as-is.
        """
        return WorkloadSpec(
            name=self.name,
            programs_by_region={
                region: [program.clone() for program in programs]
                for region, programs in self.programs_by_region.items()
            },
            clients_per_region=dict(self.clients_per_region),
            hash_key=self.hash_key,
            timed_requests_by_region={
                region: (
                    [(arrival, request.clone_for_retry()) for arrival, request in timed]
                    if isinstance(timed, list)
                    else timed.fresh_copy()
                )
                for region, timed in self.timed_requests_by_region.items()
            },
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete end-to-end run description.

    ``system`` is a registry-typed spec.  ``faults`` optionally injects a
    deterministic :class:`~repro.faults.FaultSchedule` (or the name of a
    registered schedule) into the run; ``None`` -- or an empty schedule --
    leaves the simulation bit-identical to a fault-free run.
    """

    system: SystemSpec
    cluster: ClusterConfig
    duration_s: float = 120.0
    seed: int = 0
    network_jitter: float = 0.05
    faults: FaultsLike = None
