"""The routed WAN graph: regions and routers as nodes, links as edges.

:class:`~repro.network.topology.NetworkTopology` is a pairwise one-way
latency matrix -- on its own, every region pair has a private wire, so
messages never share a path and never queue.  :class:`WanGraph` turns it
into a real graph: *region* nodes (the deployment's regions) plus
optional *WAN router* nodes, connected by directed :class:`WanLink` edges
that carry a propagation latency and an optional finite bandwidth.  Routes
between regions are computed by a registered routing policy
(:mod:`repro.net.routing`); messages transit edge by edge, and on
finite-bandwidth edges they serialise through a shared FIFO
(:mod:`repro.net.routed`).

Graph *builders* are registered by name (``register_wan_topology``) so a
frozen :class:`~repro.net.config.NetConfig` can carry just the name plus
scalar arguments into sweep worker processes, exactly like the pushing /
selection / constraint registries:

* ``"mesh"`` -- one direct edge per latency-matrix entry, the default
  network's graph.  With the bandwidth knob at 0 every route is the single
  direct hop at the matrix latency, which is what keeps the default
  network bit-identical to the historical pairwise transport.
* ``"backbone"`` -- one WAN router per continent; regions attach to their
  continent's router and routers interconnect.  All cross-continent
  traffic between two continents shares one router-to-router edge pair,
  which is the shared-link regime the Fig. 14 contention benchmark sweeps.
  ``redundancy=2`` wires two parallel routers per continent (``.../a`` and
  ``.../b``): the deterministic ``(cost, name)`` tie-break routes via
  ``a`` until a ``link-down`` fault forces re-convergence onto ``b``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .._registry import NameRegistry

if TYPE_CHECKING:
    from ..network.topology import NetworkTopology

__all__ = [
    "WanLink",
    "WanGraph",
    "register_wan_topology",
    "make_wan_topology",
    "registered_wan_topologies",
]


@dataclass(frozen=True)
class WanLink:
    """One directed edge: propagation latency plus optional bandwidth.

    ``bandwidth_bytes_per_s=0`` means *uncontended* (infinite capacity, the
    default): messages pay only the latency.  A positive bandwidth makes the
    edge a shared FIFO -- concurrent messages serialise at
    ``size_bytes / bandwidth`` each, in arrival order.
    """

    src: str
    dst: str
    latency_s: float
    bandwidth_bytes_per_s: float = 0.0


class WanGraph:
    """Directed graph of region and router nodes.

    Region nodes come from the :class:`NetworkTopology` (and carry its
    metadata -- continents, GDPR flags); router nodes are added explicitly
    via :meth:`add_router`.  Edge insertion validates eagerly -- unknown
    nodes, self-loops, negative latency/bandwidth and duplicate directed
    edges are all rejected with errors naming the offending edge -- so a
    mis-built topology fails at construction, not mid-simulation.
    """

    def __init__(self, regions: NetworkTopology) -> None:
        self.regions = regions
        self._links: Dict[Tuple[str, str], WanLink] = {}
        self._adjacency: Dict[str, List[str]] = {name: [] for name in regions.region_names()}

    # ------------------------------------------------------------------
    def add_router(self, name: str) -> None:
        """Add a WAN router node (a pure forwarding hop, not a region)."""
        if name in self._adjacency:
            raise ValueError(f"node {name!r} is already in the graph")
        self._adjacency[name] = []

    def add_edge(
        self,
        src: str,
        dst: str,
        latency_s: float,
        *,
        bandwidth_bytes_per_s: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Add a directed edge (and its reverse when ``symmetric``)."""
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop edge {u!r} -> {v!r} is not allowed")
            if u not in self._adjacency:
                raise ValueError(f"unknown node {u!r} on edge {u!r} -> {v!r}")
            if v not in self._adjacency:
                raise ValueError(f"unknown node {v!r} on edge {u!r} -> {v!r}")
            if latency_s < 0:
                raise ValueError(
                    f"latency must be non-negative, got {latency_s!r} on {u!r} -> {v!r}"
                )
            if bandwidth_bytes_per_s < 0:
                raise ValueError(
                    f"bandwidth must be non-negative, got {bandwidth_bytes_per_s!r} "
                    f"on {u!r} -> {v!r}"
                )
            if (u, v) in self._links:
                raise ValueError(f"edge {u!r} -> {v!r} is already in the graph")
            self._links[(u, v)] = WanLink(u, v, latency_s, bandwidth_bytes_per_s)
            self._adjacency[u].append(v)
            self._adjacency[u].sort()

    # ------------------------------------------------------------------
    def nodes(self) -> List[str]:
        """Every node name, regions first, in insertion order."""
        return list(self._adjacency)

    def region_names(self) -> List[str]:
        return self.regions.region_names()

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def link(self, src: str, dst: str) -> WanLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no edge {src!r} -> {dst!r} in the graph") from None

    def latency(self, src: str, dst: str) -> float:
        return self.link(src, dst).latency_s

    def neighbors(self, node: str) -> List[str]:
        """Successors of ``node``, sorted by name (deterministic iteration)."""
        try:
            return list(self._adjacency[node])
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def edges(self) -> Iterator[WanLink]:
        """Every directed edge, sorted by (src, dst)."""
        for key in sorted(self._links):
            yield self._links[key]

    @property
    def has_finite_bandwidth(self) -> bool:
        """True when any edge carries a finite (contended) bandwidth."""
        return any(link.bandwidth_bytes_per_s > 0 for link in self._links.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"<WanGraph regions={len(self.region_names())} "
            f"routers={len(self._adjacency) - len(self.region_names())} "
            f"edges={len(self._links)}>"
        )


# ----------------------------------------------------------------------
# the WAN topology builder registry
# ----------------------------------------------------------------------
_WAN_TOPOLOGIES = NameRegistry("WAN topology", plural="WAN topologies")


def register_wan_topology(name: str, *, replace_existing: bool = False):
    """Register a graph builder under ``name``.

    A builder is a callable ``(regions: NetworkTopology, *,
    wan_bandwidth_bytes_per_s=0.0, **kwargs) -> WanGraph``; configs carry
    only the name plus scalar kwargs, so they pickle into sweep workers and
    resolve there -- the same contract as every other registry.
    """
    return _WAN_TOPOLOGIES.register(name, replace_existing=replace_existing)


def make_wan_topology(name: str, regions: NetworkTopology, **kwargs) -> WanGraph:
    """Build a registered WAN topology over ``regions``."""
    return _WAN_TOPOLOGIES.make(name, regions, **kwargs)


def registered_wan_topologies() -> Tuple[str, ...]:
    return _WAN_TOPOLOGIES.names()


@register_wan_topology("mesh")
def build_mesh(
    regions: NetworkTopology, *, wan_bandwidth_bytes_per_s: float = 0.0
) -> WanGraph:
    """Full mesh: one direct edge per latency-matrix entry.

    Every route is the single hop the pairwise matrix models, and each
    edge's latency is the matrix entry itself -- the default
    :class:`~repro.net.Network` graph.
    """
    graph = WanGraph(regions)
    for (src, dst), latency_s in sorted(regions.links().items()):
        if not graph.has_edge(src, dst):
            graph.add_edge(
                src,
                dst,
                latency_s,
                bandwidth_bytes_per_s=wan_bandwidth_bytes_per_s,
                symmetric=False,
            )
    return graph


def _continent_representatives(regions: NetworkTopology) -> Dict[str, str]:
    """Lexicographically-first region per continent (deterministic)."""
    representatives: Dict[str, str] = {}
    for name in sorted(regions.region_names()):
        continent = regions.info(name).continent
        representatives.setdefault(continent, name)
    return representatives


@register_wan_topology("backbone")
def build_backbone(
    regions: NetworkTopology,
    *,
    wan_bandwidth_bytes_per_s: float = 0.0,
    access_latency_s: float = 0.002,
    access_bandwidth_bytes_per_s: float = 0.0,
    redundancy: int = 1,
    min_backbone_latency_s: float = 0.001,
) -> WanGraph:
    """One (or two, ``redundancy=2``) WAN router(s) per continent.

    Regions attach to their continent's router(s) over a short access link;
    routers interconnect with a latency derived from the latency matrix
    between each continent's representative regions (minus the two access
    legs, clamped at ``min_backbone_latency_s``), so end-to-end routed
    latencies track the matrix.  The ``wan_bandwidth_bytes_per_s`` knob
    applies to the router-to-router edges only: *every* flow between two
    continents shares that one edge pair, which is what makes the
    bandwidth-scarce regime observable.
    """
    if redundancy not in (1, 2):
        raise ValueError(f"redundancy must be 1 or 2, got {redundancy!r}")
    graph = WanGraph(regions)
    representatives = _continent_representatives(regions)
    suffixes = ("a", "b")[:redundancy]
    routers: Dict[str, List[str]] = {}
    for continent in sorted(representatives):
        routers[continent] = []
        for suffix in suffixes:
            name = f"wan/{continent}/{suffix}" if redundancy > 1 else f"wan/{continent}"
            graph.add_router(name)
            routers[continent].append(name)
    for region in sorted(regions.region_names()):
        continent = regions.info(region).continent
        for router in routers[continent]:
            graph.add_edge(
                region,
                router,
                access_latency_s,
                bandwidth_bytes_per_s=access_bandwidth_bytes_per_s,
            )
    continents = sorted(representatives)
    for i, a in enumerate(continents):
        for b in continents[i + 1 :]:
            base = regions.one_way(representatives[a], representatives[b])
            backbone_latency = max(min_backbone_latency_s, base - 2 * access_latency_s)
            for router_a in routers[a]:
                for router_b in routers[b]:
                    graph.add_edge(
                        router_a,
                        router_b,
                        backbone_latency,
                        bandwidth_bytes_per_s=wan_bandwidth_bytes_per_s,
                    )
    if redundancy > 1:
        # The two parallel planes interconnect within a continent so a
        # single downed backbone edge re-routes without re-crossing an
        # access link.
        for continent in continents:
            plane_a, plane_b = routers[continent]
            graph.add_edge(plane_a, plane_b, min_backbone_latency_s)
    return graph
