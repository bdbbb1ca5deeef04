"""The centralized service controller (§4.2).

The controller is SkyWalker's management plane: it periodically probes the
health of every load balancer and replica, reconfigures the system when a
load balancer dies (re-assigning its replicas to the geographically closest
healthy balancer and re-pointing DNS), initiates recovery in the background,
and transfers the replicas back once the failed balancer returns.  Each
failure's downtime comes from the fault that caused it
(:attr:`ServiceController.downtime_s`), counted from its detection.

The controller is intentionally *not* on the data path -- requests never
pass through it -- so its own failure only delays reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster.client import Frontend
from ..net import Network
from ..replica import ReplicaServer
from ..sim import Environment
from ..workloads.request import Request
from .balancer import SkyWalkerBalancer

__all__ = ["ServiceController", "FailoverRecord"]


@dataclass
class FailoverRecord:
    """Bookkeeping for one balancer failure being handled."""

    failed_balancer: str
    takeover_balancer: str
    replica_names: List[str] = field(default_factory=list)
    failed_at: float = 0.0
    recovered_at: Optional[float] = None


class ServiceController:
    """Health monitoring, fail-over and recovery orchestration."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        frontend: Frontend,
        *,
        health_probe_interval_s: float = 0.5,
    ) -> None:
        self.env = env
        self.network = network
        self.frontend = frontend
        self.health_probe_interval_s = health_probe_interval_s
        #: Downtime of each balancer's next detected failure, set by the
        #: fault that fails it; a failure without an entry (or with
        #: ``None``) stays down for the rest of the run.
        self.downtime_s: Dict[str, Optional[float]] = {}
        self.balancers: Dict[str, SkyWalkerBalancer] = {}
        self.failovers: List[FailoverRecord] = []
        self._active_failovers: Dict[str, FailoverRecord] = {}
        self._process = None

    # ------------------------------------------------------------------
    def register_balancer(self, balancer: SkyWalkerBalancer) -> None:
        self.balancers[balancer.name] = balancer

    def start(self) -> None:
        if self._process is None:
            self._process = self.env.process(self._run())

    # ------------------------------------------------------------------
    def _run(self):
        env = self.env
        while True:
            yield env.timeout(self.health_probe_interval_s)
            for balancer in list(self.balancers.values()):
                if not balancer.healthy and balancer.name not in self._active_failovers:
                    self._handle_balancer_failure(balancer)

    # ------------------------------------------------------------------
    def _nearest_healthy_balancer(self, region: str, exclude: str) -> Optional[SkyWalkerBalancer]:
        best: Optional[SkyWalkerBalancer] = None
        best_latency = float("inf")
        for balancer in self.balancers.values():
            if balancer.name == exclude or not balancer.healthy:
                continue
            latency = self.network.topology.one_way(region, balancer.region)
            if latency < best_latency:
                best, best_latency = balancer, latency
        return best

    def _handle_balancer_failure(self, failed: SkyWalkerBalancer) -> None:
        """Reassign the failed balancer's replicas and stranded requests.

        With no healthy balancer to take over, the stranded requests stay
        on the failed one, and :meth:`SkyWalkerBalancer.recover` puts them
        back at the head of its queue.
        """
        takeover = self._nearest_healthy_balancer(failed.region, exclude=failed.name)
        downtime = self.downtime_s.pop(failed.name, None)
        failed.fail()  # idempotent if the failure was injected externally
        self.frontend.set_health(failed.name, False)
        record = FailoverRecord(
            failed_balancer=failed.name,
            takeover_balancer=takeover.name if takeover else "",
            failed_at=self.env.now,
        )
        if takeover is not None:
            for replica in failed.replicas():
                record.replica_names.append(replica.name)
                takeover.add_replica(replica)
            for request in failed.take_stranded():
                # Stranded requests are re-routed through the takeover
                # balancer; the extra hop is visible in their latency.
                self.network.deliver(
                    request, failed.region, takeover.region, takeover.inbox
                )
        self.failovers.append(record)
        self._active_failovers[failed.name] = record
        if downtime is not None:
            self.env.process(self._recover_later(failed, takeover, record, downtime))

    def _recover_later(
        self,
        failed: SkyWalkerBalancer,
        takeover: Optional[SkyWalkerBalancer],
        record: FailoverRecord,
        downtime: float,
    ):
        yield self.env.timeout(downtime)
        failed.recover()
        if takeover is not None:
            for replica_name in record.replica_names:
                replica = takeover.remove_replica(replica_name)
                if replica is not None:
                    failed.add_replica(replica)
        self.frontend.set_health(failed.name, True)
        record.recovered_at = self.env.now
        self._active_failovers.pop(failed.name, None)
