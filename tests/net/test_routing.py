"""Unit tests for WAN routing (``WanGraph.shortest_path``): determinism,
tie-breaks and downed edges."""

from repro.net import WanGraph
from repro.network import NetworkTopology, RegionInfo


def _diamond():
    """a -> {upper, lower} -> b, with the upper path strictly cheaper."""
    regions = NetworkTopology([RegionInfo("a", 0), RegionInfo("b", 0)], {})
    graph = WanGraph(regions)
    graph.add_router("upper")
    graph.add_router("lower")
    graph.add_edge("a", "upper", 0.01)
    graph.add_edge("upper", "b", 0.01)
    graph.add_edge("a", "lower", 0.02)
    graph.add_edge("lower", "b", 0.02)
    return graph


def _equal_cost_diamond():
    """Two exactly equal-cost paths: the (cost, name) tie-break must pick
    the lexicographically smaller router deterministically."""
    regions = NetworkTopology([RegionInfo("a", 0), RegionInfo("b", 0)], {})
    graph = WanGraph(regions)
    for router in ("m", "k"):  # insertion order deliberately non-sorted
        graph.add_router(router)
        graph.add_edge("a", router, 0.01)
        graph.add_edge(router, "b", 0.01)
    return graph


def test_shortest_path_picks_cheapest():
    assert _diamond().shortest_path("a", "b") == ("a", "upper", "b")
    # A cheaper 2-hop detour (0.04) beats a direct edge (0.05): routes
    # minimise latency, not hops.
    regions = NetworkTopology(
        [RegionInfo("a", 0), RegionInfo("b", 0)], {("a", "b"): 0.05}
    )
    graph = WanGraph(regions)
    graph.add_edge("a", "b", 0.05)
    graph.add_router("detour")
    graph.add_edge("a", "detour", 0.02)
    graph.add_edge("detour", "b", 0.02)
    assert graph.shortest_path("a", "b") == ("a", "detour", "b")


def test_shortest_path_same_node_is_trivial():
    assert _diamond().shortest_path("a", "a") == ("a",)


def test_shortest_path_tie_break_is_lexicographic():
    # Both paths cost 0.02; 'k' < 'm' so the k-path wins -- regardless of
    # the order the routers were inserted in.
    assert _equal_cost_diamond().shortest_path("a", "b") == ("a", "k", "b")


def test_shortest_path_routes_around_down_edges():
    down = frozenset({("a", "upper"), ("upper", "a")})
    assert _diamond().shortest_path("a", "b", down) == ("a", "lower", "b")


def test_shortest_path_returns_none_when_cut():
    down = frozenset({("a", "upper"), ("a", "lower")})
    assert _diamond().shortest_path("a", "b", down) is None
