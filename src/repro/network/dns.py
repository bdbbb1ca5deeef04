"""Latency-based DNS resolution (the Route53 analogue in §4.1).

SkyWalker publishes one domain name; each client resolves it to the nearest
*healthy* load balancer based on its source region.  The resolver is also
what the failure-recovery path manipulates: when a regional load balancer
dies, its clients are re-resolved to the next-closest one until recovery.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .topology import NetworkTopology

__all__ = ["GeoDNS"]


class GeoDNS:
    """Maps client regions to the nearest healthy endpoint."""

    def __init__(self, topology: NetworkTopology) -> None:
        self.topology = topology
        #: endpoint name -> region it is deployed in
        self._endpoints: Dict[str, str] = {}
        #: endpoint name -> health flag
        self._healthy: Dict[str, bool] = {}
        self.resolutions = 0
        self.stale_resolutions = 0

    # ------------------------------------------------------------------
    def register(self, endpoint: str, region: str) -> None:
        """Add an endpoint (load balancer) serving from ``region``."""
        self.topology.info(region)  # validates the region exists
        self._endpoints[endpoint] = region
        self._healthy[endpoint] = True

    def set_health(self, endpoint: str, healthy: bool) -> None:
        if endpoint not in self._endpoints:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        self._healthy[endpoint] = healthy

    def endpoints(self) -> List[str]:
        return list(self._endpoints)

    # ------------------------------------------------------------------
    def _nearest(self, client_region: str, endpoints: Iterable[str]) -> Optional[str]:
        """The candidate endpoint with the lowest one-way client latency."""
        best: Optional[str] = None
        best_latency = float("inf")
        for endpoint in endpoints:
            latency = self.topology.one_way(client_region, self._endpoints[endpoint])
            if latency < best_latency:
                best, best_latency = endpoint, latency
        return best

    def resolve(self, client_region: str) -> Optional[str]:
        """Return the healthy endpoint with the lowest latency from the client."""
        self.resolutions += 1
        return self._nearest(
            client_region,
            (endpoint for endpoint in self._endpoints if self._healthy[endpoint]),
        )

    def resolve_stale(self, client_region: str) -> Optional[str]:
        """Nearest endpoint *ignoring* health -- the record a resolver cache
        keeps serving during a total outage.  Requests sent to it queue
        against the dead balancer until recovery instead of erroring out,
        which is exactly how a centralized single-balancer deployment
        behaves when its one balancer dies."""
        self.stale_resolutions += 1
        return self._nearest(client_region, self._endpoints)
