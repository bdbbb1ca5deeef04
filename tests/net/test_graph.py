"""Unit tests for the WAN graph and its topology-builder registry."""

import pytest

from repro.net import (
    WanGraph,
    make_wan_topology,
    register_wan_topology,
    registered_wan_topologies,
)
from repro.net.graph import _WAN_TOPOLOGIES
from repro.network import default_topology, wide_topology


def _routers(graph):
    return [node for node in graph.nodes() if node not in graph.region_names()]


def test_graph_nodes_start_as_the_regions():
    graph = WanGraph(default_topology())
    assert set(graph.nodes()) == {"us", "eu", "asia"}
    assert _routers(graph) == []


def test_add_router_and_edge():
    graph = WanGraph(default_topology())
    graph.add_router("wan/core")
    graph.add_edge("us", "wan/core", 0.002)
    assert graph.has_edge("us", "wan/core")
    assert graph.has_edge("wan/core", "us")  # symmetric by default
    assert graph.latency("us", "wan/core") == 0.002


def test_duplicate_router_rejected():
    graph = WanGraph(default_topology())
    graph.add_router("wan/core")
    with pytest.raises(ValueError, match="'wan/core'"):
        graph.add_router("wan/core")
    with pytest.raises(ValueError, match="'us'"):
        graph.add_router("us")


def test_edge_validation_names_the_edge():
    graph = WanGraph(default_topology())
    with pytest.raises(ValueError, match="'us' -> 'us'"):
        graph.add_edge("us", "us", 0.001)
    with pytest.raises(ValueError, match="'mars'"):
        graph.add_edge("us", "mars", 0.001)
    with pytest.raises(ValueError, match="'us' -> 'eu'"):
        graph.add_edge("us", "eu", -0.1)
    with pytest.raises(ValueError, match="bandwidth"):
        graph.add_edge("us", "eu", 0.1, bandwidth_bytes_per_s=-1.0)
    graph.add_edge("us", "eu", 0.075)
    with pytest.raises(ValueError, match="already"):
        graph.add_edge("us", "eu", 0.075)


def test_missing_edge_lookup_names_the_edge():
    graph = WanGraph(default_topology())
    with pytest.raises(KeyError, match="'us' -> 'eu'"):
        graph.link("us", "eu")
    with pytest.raises(KeyError, match="'mars'"):
        graph.neighbors("mars")


def test_neighbors_are_sorted():
    graph = WanGraph(default_topology())
    graph.add_edge("us", "eu", 0.075, symmetric=False)
    graph.add_edge("us", "asia", 0.090, symmetric=False)
    assert graph.neighbors("us") == ["asia", "eu"]


def test_finite_bandwidth_flag():
    graph = WanGraph(default_topology())
    graph.add_edge("us", "eu", 0.075)
    assert not graph.has_finite_bandwidth
    graph.add_edge("us", "asia", 0.090, bandwidth_bytes_per_s=1e9)
    assert graph.has_finite_bandwidth


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def test_builtin_topologies_registered():
    assert "mesh" in registered_wan_topologies()
    assert "backbone" in registered_wan_topologies()


def test_mesh_mirrors_the_latency_matrix():
    regions = default_topology()
    graph = make_wan_topology("mesh", regions)
    for (src, dst), latency in regions.links().items():
        assert graph.latency(src, dst) == latency
    assert _routers(graph) == []
    assert not graph.has_finite_bandwidth


def test_backbone_routes_track_the_matrix():
    regions = default_topology()
    graph = make_wan_topology("backbone", regions)
    # One router per continent; each region attaches to its continent's.
    assert sorted(_routers(graph)) == ["wan/asia", "wan/europe", "wan/north-america"]
    assert graph.has_edge("us", "wan/north-america")
    # Access + backbone + access reconstructs the matrix latency.
    end_to_end = (
        graph.latency("us", "wan/north-america")
        + graph.latency("wan/north-america", "wan/europe")
        + graph.latency("wan/europe", "eu")
    )
    assert end_to_end == pytest.approx(regions.one_way("us", "eu"))


def test_backbone_bandwidth_applies_to_backbone_edges_only():
    graph = make_wan_topology("backbone", default_topology(), wan_bandwidth_bytes_per_s=1e8)
    assert graph.link("wan/north-america", "wan/europe").bandwidth_bytes_per_s == 1e8
    assert graph.link("us", "wan/north-america").bandwidth_bytes_per_s == 0.0


def test_backbone_redundancy_two_wires_parallel_planes():
    graph = make_wan_topology("backbone", default_topology(), redundancy=2)
    assert "wan/north-america/a" in _routers(graph)
    assert "wan/north-america/b" in _routers(graph)
    assert graph.has_edge("wan/north-america/a", "wan/north-america/b")
    with pytest.raises(ValueError, match="redundancy"):
        make_wan_topology("backbone", default_topology(), redundancy=3)


def test_backbone_handles_multi_region_continents():
    graph = make_wan_topology("backbone", wide_topology())
    # Three continents, every region attached.
    assert len(_routers(graph)) == 3
    for region in wide_topology().region_names():
        assert any(graph.has_edge(region, router) for router in _routers(graph))


def test_register_wan_topology_rejects_duplicates_and_supports_custom():
    with pytest.raises(ValueError):
        register_wan_topology("mesh")(lambda regions, **kwargs: WanGraph(regions))

    @register_wan_topology("test-star")
    def build_star(regions, *, wan_bandwidth_bytes_per_s=0.0):
        graph = WanGraph(regions)
        graph.add_router("hub")
        for name in sorted(regions.region_names()):
            graph.add_edge(name, "hub", 0.01, bandwidth_bytes_per_s=wan_bandwidth_bytes_per_s)
        return graph

    try:
        graph = make_wan_topology("test-star", default_topology(), wan_bandwidth_bytes_per_s=5.0)
        assert graph.latency("us", "hub") == 0.01
        assert graph.link("us", "hub").bandwidth_bytes_per_s == 5.0
    finally:
        _WAN_TOPOLOGIES.unregister("test-star")
