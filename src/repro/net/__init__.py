"""``repro.net``: the graph-routed WAN with shared-link bandwidth contention.

:mod:`repro.network` describes regions as a pairwise latency matrix, where
every region pair has a private wire: messages never share a path and the
bandwidth-scarce regime the paper's BP vs SP-O/SP-P comparison diverges in
is unreachable.  This package carries messages over a routed graph instead:

* :mod:`~repro.net.graph` -- :class:`WanGraph` (regions + WAN routers,
  directed edges with latency and optional finite bandwidth) and the
  ``register_wan_topology`` builder registry (``"mesh"``, ``"backbone"``).
* :mod:`~repro.net.routing` -- the ``register_routing_policy`` registry
  (``"shortest-path"`` Dijkstra with the deterministic ``(cost, name)``
  tie-break, ``"static-route"``, ``"cost-weighted"``).
* :mod:`~repro.net.routed` -- :class:`Network`, the simulator's only
  transport: multi-hop delivery and probes, per-edge faults, FIFO
  contention and deterministic route re-convergence under faults
  (observable as :class:`RouteChange` events).
* :mod:`~repro.net.config` -- the frozen :class:`NetConfig` that rides on
  :class:`~repro.experiments.config.ClusterConfig` into sweep workers.

The default network (``"mesh"``, contention off) routes every pair over
its direct edge and reproduces the historical pairwise transport bit for
bit -- see ``docs/NETWORK.md`` for the full determinism contract.
"""

from .config import NetConfig
from .graph import (
    WanGraph,
    WanLink,
    make_wan_topology,
    register_wan_topology,
    registered_wan_topologies,
)
from .routed import Network, RouteChange, build_routed_network
from .routing import (
    CostWeightedRouting,
    RoutingPolicy,
    ShortestPathRouting,
    StaticRouting,
    make_routing_policy,
    register_routing_policy,
    registered_routing_policies,
)
from .trace import run_route_trace

__all__ = [
    "NetConfig",
    "WanGraph",
    "WanLink",
    "register_wan_topology",
    "make_wan_topology",
    "registered_wan_topologies",
    "RoutingPolicy",
    "ShortestPathRouting",
    "StaticRouting",
    "CostWeightedRouting",
    "register_routing_policy",
    "make_routing_policy",
    "registered_routing_policies",
    "Network",
    "RouteChange",
    "build_routed_network",
    "run_route_trace",
]
