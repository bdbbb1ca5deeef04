"""The routed network: multi-hop delivery with shared-link contention.

:class:`RoutedNetwork` is a drop-in :class:`~repro.network.Network` whose
latency comes from a routed path over a :class:`~repro.net.graph.WanGraph`
instead of a pairwise matrix lookup, and whose messages -- when any edge
carries finite bandwidth -- serialise through per-edge FIFO queues as real
simulation processes (store-and-forward per hop).

Determinism contract (the part the golden traces pin):

* **Contention off** (every edge bandwidth 0, the default): on the
  ``"mesh"`` topology the routed network is *bit-identical* to the legacy
  pairwise network.  Routes are the single direct hop, the per-edge latency
  is the matrix entry, fault surcharges key on the same ``(src, dst)``
  pairs, and both the jitter RNG and the fault RNG are consumed in exactly
  the historical order.
* **Contention on**: transit becomes event-driven (queue, transmit
  ``size/bandwidth``, propagate per hop), so latencies depend on concurrent
  traffic -- but the whole schedule is still a pure function of
  (spec, workload, seed): serial, ``workers=N`` and forced-spawn sweeps
  produce identical results.
* **Re-convergence**: route tables are recomputed whenever an edge goes
  down/up or a region pair is (un)blocked, by the registered routing policy
  with its deterministic tie-break; every table diff is appended to
  :attr:`RoutedNetwork.route_events` in sorted pair order, so two runs
  agree on the exact ``route_changed`` sequence.

A pair whose route is cut keeps its *last-known-good* path in the table
(latency sampling stays finite for code that asks) but is marked
unreachable: messages sent across it are dropped, exactly like the legacy
partition semantics, and :meth:`link_blocked` reports it down so
availability probes see the cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..network.link import Network
from ..sim import Environment, Resource, Store
from .config import NetConfig
from .graph import WanGraph, make_wan_topology
from .routing import RoutingPolicy, make_routing_policy

__all__ = ["RouteChange", "RoutedNetwork", "build_routed_network"]

Path = Tuple[str, ...]
Pair = Tuple[str, str]

#: Sentinel payload for phantom transfers (response streams) that occupy
#: link bandwidth but are never delivered into an inbox.
_PHANTOM = object()


@dataclass(frozen=True)
class RouteChange:
    """One observable ``route_changed`` event: a region pair's path diff."""

    time: float
    #: What triggered the re-convergence: ``"partition"``, ``"heal"``,
    #: ``"link-down"`` or ``"link-up"``.
    reason: str
    src: str
    dst: str
    #: Previous path (``None`` = the pair was unreachable).
    old_path: Optional[Path]
    #: New path (``None`` = the pair is now unreachable).
    new_path: Optional[Path]

    def as_tuple(self) -> tuple:
        """Hashable, comparison-friendly form (times rounded to ns so a
        serialisation round-trip cannot perturb equality checks)."""
        return (round(self.time, 9), self.reason, self.src, self.dst,
                self.old_path, self.new_path)


class RoutedNetwork(Network):
    """Multi-hop message transport over a WAN graph.

    Parameters beyond the legacy :class:`Network` ones:

    graph / policy:
        The :class:`WanGraph` to route over and the
        :class:`~repro.net.routing.RoutingPolicy` computing paths.  Edge
        bandwidths are fixed at build time (``contention_enabled`` is
        cached), so mutate the graph before constructing the network.
    request_bytes_per_token / response_bytes_per_token / kv_bytes_per_token:
        Wire-size coefficients for the contention model (all inert while
        contention is off).
    model_responses:
        When contended, finished responses become phantom reverse-path
        transfers (:meth:`stream_response`) so they share WAN edges with
        pushes -- registered as a replica completion listener by the
        experiment runner.
    """

    def __init__(
        self,
        env: Environment,
        graph: WanGraph,
        policy: RoutingPolicy,
        *,
        jitter_fraction: float = 0.05,
        seed: int = 0,
        request_bytes_per_token: float = 0.0,
        response_bytes_per_token: float = 0.0,
        kv_bytes_per_token: float = 0.0,
        model_responses: bool = True,
    ) -> None:
        super().__init__(
            env, graph.regions, jitter_fraction=jitter_fraction, seed=seed
        )
        self.graph = graph
        self.policy = policy
        self.request_bytes_per_token = request_bytes_per_token
        self.response_bytes_per_token = response_bytes_per_token
        self.kv_bytes_per_token = kv_bytes_per_token
        self.model_responses = model_responses
        self._contended = graph.has_finite_bandwidth
        # Route table over region pairs.  _route_base caches the summed
        # path latency for the (hot) no-active-fault sampling path.
        self._routes: Dict[Pair, Path] = {}
        self._route_base: Dict[Pair, float] = {}
        self._down_edges: Dict[Pair, int] = {}
        self._unreachable: Set[Pair] = set()
        #: Every route-table diff, in event order (sorted pair order within
        #: one re-convergence) -- the observable ``route_changed`` stream.
        self.route_events: List[RouteChange] = []
        # One FIFO queue per finite-bandwidth edge, created lazily.
        self._edge_queues: Dict[Pair, Resource] = {}
        # Contention accounting (separate from the legacy message counters,
        # which golden traces may observe indirectly).
        self.wire_bytes_sent = 0.0
        self.response_streams = 0
        self.response_bytes = 0.0
        self._reconverge(None)

    # ------------------------------------------------------------------
    # routes and re-convergence
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Optional[Path]:
        """The current path for a region pair (``None`` when unreachable;
        same-region pairs route trivially)."""
        if src == dst:
            return (src,)
        if (src, dst) in self._unreachable:
            return None
        return self._routes[(src, dst)]

    def reachable(self, src: str, dst: str) -> bool:
        return src == dst or (src, dst) not in self._unreachable

    def _reconverge(self, reason: Optional[str]) -> None:
        """Recompute every region pair's route and record the diffs.

        ``reason=None`` is the initial table build: no events, and a
        disconnected pair is a construction error rather than an outage.
        Pairs are visited in sorted order so the event sequence of one
        re-convergence is deterministic.
        """
        down = frozenset(self._down_edges)
        regions = sorted(self.graph.region_names())
        for src in regions:
            for dst in regions:
                if src == dst:
                    continue
                pair = (src, dst)
                old_path: Optional[Path] = (
                    self._routes[pair] if pair in self._routes and pair not in self._unreachable
                    else None
                )
                if pair in self._blocked_links:
                    # A blocked *pair* is a policy statement that these two
                    # regions must not communicate (the partition fault), so
                    # routing around it is not allowed.
                    new_path: Optional[Path] = None
                else:
                    new_path = self.policy.compute_path(self.graph, src, dst, down)
                if new_path is None:
                    if reason is None:
                        raise ValueError(
                            f"no route from {src!r} to {dst!r} in the WAN graph; "
                            "a topology must connect every region pair"
                        )
                    # Keep the last-known-good path for latency sampling;
                    # deliveries across the pair drop until it heals.
                    self._unreachable.add(pair)
                else:
                    self._unreachable.discard(pair)
                    self._routes[pair] = new_path
                    self._route_base[pair] = sum(
                        self.graph.latency(u, v)
                        for u, v in zip(new_path, new_path[1:])
                    )
                if reason is not None and old_path != new_path:
                    self.route_events.append(
                        RouteChange(self.env.now, reason, src, dst, old_path, new_path)
                    )

    # ------------------------------------------------------------------
    # fault surface: edges down, pairs blocked
    # ------------------------------------------------------------------
    def set_edge_down(
        self, u: str, v: str, down: bool = True, *, symmetric: bool = True
    ) -> None:
        """Take one graph edge down (or back up) and re-converge routes.

        Downs are reference-counted per direction, like pair blocks, so
        overlapping faults compose.  Unlike a blocked pair, traffic *routes
        around* a downed edge when the policy finds an alternative."""
        pairs = [(u, v)] + ([(v, u)] if symmetric else [])
        for a, b in pairs:
            if not self.graph.has_edge(a, b):
                raise KeyError(f"no edge {a!r} -> {b!r} in the graph")
        for pair in pairs:
            self._adjust_down_edge(pair, down)
        self._reconverge("link-down" if down else "link-up")

    def _adjust_down_edge(self, pair: Pair, down: bool) -> None:
        if down:
            self._down_edges[pair] = self._down_edges.get(pair, 0) + 1
        else:
            count = self._down_edges.get(pair, 0)
            if count <= 1:
                self._down_edges.pop(pair, None)
            else:
                self._down_edges[pair] = count - 1

    def set_link_blocked(
        self, src: str, dst: str, blocked: bool = True, *, symmetric: bool = True
    ) -> None:
        """A partition between two regions, as a graph cut.

        The pair block itself is inherited (messages across the pair drop,
        probes see it down); additionally any *direct* edge between the two
        nodes goes down so third-party routes avoid it, and the route table
        re-converges -- which is what makes the partition observable as
        ``route_changed`` events."""
        super().set_link_blocked(src, dst, blocked, symmetric=symmetric)
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            if self.graph.has_edge(*pair):
                self._adjust_down_edge(pair, blocked)
        self._reconverge("partition" if blocked else "heal")

    def link_blocked(self, src: str, dst: str) -> bool:
        """Down when the pair is blocked *or* the route to it is cut, so
        availability probes detect graph cuts the same way they detect
        pairwise partitions."""
        return super().link_blocked(src, dst) or (src, dst) in self._unreachable

    # ------------------------------------------------------------------
    # latency sampling (the uncontended path)
    # ------------------------------------------------------------------
    def _sample_base(self, src: str, dst: str) -> float:
        """Pre-jitter latency summed edge by edge along the routed path.

        Spike surcharges and degrade jitter key on graph *edges*; on the
        mesh topology the path is the single ``(src, dst)`` edge, so the
        arithmetic, the dict keys and the fault-RNG draws are exactly the
        legacy pairwise code's -- that is the bit-identity contract."""
        if src == dst:
            return super()._sample_base(src, dst)
        path = self._routes[(src, dst)]
        if not self._extra_latency and not self._link_extra_jitter:
            return self._route_base[(src, dst)]
        base = 0.0
        for u, v in zip(path, path[1:]):
            leg = self.graph.latency(u, v)
            if self._extra_latency:
                leg += self._extra_latency.get((u, v), 0.0)
            if self._link_extra_jitter:
                extra = self._link_extra_jitter.get((u, v), 0.0)
                if extra > 0:
                    leg += self._ensure_fault_rng().uniform(0.0, leg * extra)
            base += leg
        return base

    def _message_lost(self, src: str, dst: str) -> bool:
        """Per-edge loss checks, in path order (single-edge on the mesh,
        where this reduces byte-for-byte to the pairwise check)."""
        if not self._link_loss or src == dst:
            return super()._message_lost(src, dst)
        path = self._routes.get((src, dst))
        if path is None:
            return super()._message_lost(src, dst)
        for u, v in zip(path, path[1:]):
            loss = min(1.0, self._link_loss.get((u, v), 0.0))
            if loss > 0.0 and self._ensure_fault_rng().random() < loss:
                return True
        return False

    # ------------------------------------------------------------------
    # wire sizes (the contention model's inputs)
    # ------------------------------------------------------------------
    @property
    def contention_enabled(self) -> bool:
        return self._contended

    def request_wire_bytes(self, request: Any) -> float:
        return self.request_bytes_per_token * request.prompt_len

    def push_wire_bytes(self, tokens: int) -> float:
        return self.kv_bytes_per_token * max(0, tokens)

    def response_wire_bytes(self, request: Any) -> float:
        tokens = request.generated_tokens or request.output_len
        return self.response_bytes_per_token * tokens

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def deliver(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Store,
        *,
        extra_delay: float = 0.0,
        size_bytes: float = 0.0,
    ) -> None:
        if src != dst and self._contended:
            self.messages_sent += 1
            self.cross_region_messages += 1
            if (src, dst) in self._blocked_links or (src, dst) in self._unreachable:
                self.dropped_messages += 1
                return
            if self._message_lost(src, dst):
                self.dropped_messages += 1
                return
            self.wire_bytes_sent += size_bytes
            self.env.process(
                self._transit(item, src, dst, inbox, extra_delay, size_bytes)
            )
            return
        if self._drop_unreachable(src, dst):
            return
        super().deliver(item, src, dst, inbox, extra_delay=extra_delay, size_bytes=size_bytes)

    def call_after_delay(self, src: str, dst: str, callback: Callable[[], None]) -> None:
        if self._drop_unreachable(src, dst):
            return
        super().call_after_delay(src, dst, callback)

    def _drop_unreachable(self, src: str, dst: str) -> bool:
        """Drop (with legacy counter order) across a cut that is not also a
        pair block -- the pair-block drop itself lives in the base class."""
        if (
            src != dst
            and (src, dst) in self._unreachable
            and (src, dst) not in self._blocked_links
        ):
            self.messages_sent += 1
            self.cross_region_messages += 1
            self.dropped_messages += 1
            return True
        return False

    # ------------------------------------------------------------------
    # contended transit
    # ------------------------------------------------------------------
    def _edge_queue(self, u: str, v: str) -> Resource:
        key = (u, v)
        queue = self._edge_queues.get(key)
        if queue is None:
            queue = self._edge_queues[key] = Resource(self.env, capacity=1)
        return queue

    def _transit(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Optional[Store],
        extra_delay: float,
        size_bytes: float,
    ):
        """Store-and-forward transit: per edge, acquire the shared FIFO,
        transmit ``size/bandwidth``, release, then propagate the hop's
        latency.  Zero-size messages still pass through the queue (they
        wait behind in-flight transmissions -- shared-FIFO semantics), and
        a message already in flight completes over its captured path even
        if an edge on it goes down mid-transit."""
        if extra_delay > 0:
            yield self.env.timeout(extra_delay)
        path = self._routes[(src, dst)]
        for u, v in zip(path, path[1:]):
            link = self.graph.link(u, v)
            if link.bandwidth_bytes_per_s > 0:
                queue = self._edge_queue(u, v)
                grant = queue.request()
                yield grant
                if size_bytes > 0:
                    yield self.env.timeout(size_bytes / link.bandwidth_bytes_per_s)
                # No ``finally:`` (nothing interrupts a transit): GC closing a
                # finished run's transit would release into its dead env.
                queue.release(grant)
            yield self.env.timeout(self._hop_delay(u, v))
        if inbox is not None:
            yield inbox.put(item)

    def _hop_delay(self, u: str, v: str) -> float:
        """One hop's propagation delay: edge latency, fault surcharges and
        bounded jitter, drawn at forwarding time (hop by hop, rather than
        once end-to-end, because contended hops happen at different sim
        times)."""
        leg = self.graph.latency(u, v)
        if self._extra_latency:
            leg += self._extra_latency.get((u, v), 0.0)
        if self._link_extra_jitter:
            extra = self._link_extra_jitter.get((u, v), 0.0)
            if extra > 0:
                leg += self._ensure_fault_rng().uniform(0.0, leg * extra)
        if self.jitter_fraction > 0:
            jitter = leg * self.jitter_fraction
            leg = max(0.0, leg + self._rng.uniform(-jitter, jitter))
        return leg

    # ------------------------------------------------------------------
    # response streams (phantom reverse-path transfers)
    # ------------------------------------------------------------------
    def stream_response(self, request: Any) -> None:
        """Completion listener: occupy the reverse path with the finished
        response's bytes.

        The client-observed latency itself stays the analytic
        ``response_network_delay`` stamp (so the metric identity payload is
        untouched); what this models is the *load* responses place on
        shared WAN edges, which is the other half of the contention story
        -- pushes and response streams queue behind each other."""
        if not self._contended or not self.model_responses:
            return
        src = request.serving_region or request.region
        dst = request.region
        if src == dst:
            return
        size = self.response_wire_bytes(request)
        self.response_streams += 1
        self.response_bytes += size
        if (src, dst) in self._blocked_links or (src, dst) in self._unreachable:
            return
        self.env.process(self._transit(_PHANTOM, src, dst, None, 0.0, size))


def build_routed_network(
    env: Environment,
    config: NetConfig,
    regions,
    *,
    jitter_fraction: float = 0.05,
    seed: int = 0,
    default_kv_bytes_per_token: float = 0.0,
) -> RoutedNetwork:
    """Resolve a frozen :class:`NetConfig` into a live routed network.

    ``regions`` is the experiment's :class:`~repro.network.NetworkTopology`;
    ``default_kv_bytes_per_token`` is the model profile's KV footprint, used
    when the config leaves ``kv_bytes_per_token`` at 0 (the physically
    faithful default: pushed prefixes weigh what the profile says they do).
    """
    graph = make_wan_topology(
        config.topology,
        regions,
        wan_bandwidth_bytes_per_s=config.wan_bandwidth_bytes_per_s,
        **dict(config.topology_args),
    )
    policy = make_routing_policy(config.routing, **dict(config.routing_args))
    kv_bytes = config.kv_bytes_per_token or default_kv_bytes_per_token
    return RoutedNetwork(
        env,
        graph,
        policy,
        jitter_fraction=jitter_fraction,
        seed=seed,
        request_bytes_per_token=config.request_bytes_per_token,
        response_bytes_per_token=config.response_bytes_per_token,
        kv_bytes_per_token=kv_bytes,
        model_responses=config.model_responses,
    )
