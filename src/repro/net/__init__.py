"""``repro.net``: the graph-routed WAN with shared-link bandwidth contention.

:mod:`repro.network` describes regions as a pairwise latency matrix, where
every region pair has a private wire: messages never share a path and the
bandwidth-scarce regime the paper's BP vs SP-O/SP-P comparison diverges in
is unreachable.  This package carries messages over a routed graph instead:

* :mod:`~repro.net.graph` -- :class:`WanGraph` (regions + WAN routers,
  directed edges with latency and optional finite bandwidth), its one
  route function :meth:`WanGraph.shortest_path` (Dijkstra with the
  deterministic ``(cost, name)`` tie-break) and the
  ``register_wan_topology`` builder registry (``"mesh"``, ``"backbone"``).
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
from .trace import run_route_trace

__all__ = [
    "NetConfig",
    "WanGraph",
    "WanLink",
    "register_wan_topology",
    "make_wan_topology",
    "registered_wan_topologies",
    "Network",
    "RouteChange",
    "build_routed_network",
    "run_route_trace",
]
