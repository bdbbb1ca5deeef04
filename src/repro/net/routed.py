"""The network: latency-faithful, multi-hop message transport over the WAN.

:class:`Network` is the simulator's one transport between simulation
actors.  It routes every region pair over a
:class:`~repro.net.graph.WanGraph` along its shortest paths, samples
a jittered latency summed edge by edge along the route, and then delivers
the payload into the destination's inbox store.  Probes (heartbeat RTTs) are
modelled the same way, which is what makes "probe all replicas from every
load balancer" measurably more expensive than SkyWalker's two-layer design.
When any edge carries finite bandwidth, cross-region messages instead
serialise through per-edge FIFO queues, store-and-forward per hop, as a
chain of timer callbacks over a small per-message record (no simulation
process per message).

Determinism contract (the part the golden traces pin):

* **The default network** is the ``"mesh"`` graph (one direct edge per
  latency-matrix entry) with no bandwidth.
  Every route is the single direct hop, so samples, fault-RNG draws and
  counters reproduce the historical pairwise-matrix transport bit for bit
  (``tests/net/data/pairwise_legacy.json``).
* **Contention on**: transit becomes event-driven (queue, transmit
  ``size/bandwidth``, propagate per hop), so latencies depend on concurrent
  traffic -- but the whole schedule is still a pure function of
  (spec, workload, seed): serial, ``workers=N`` and forced-spawn sweeps
  produce identical results.
* **Re-convergence**: route tables are recomputed whenever an edge goes
  down/up or a region pair is (un)blocked, as shortest paths with their
  deterministic tie-break; every table diff is appended to
  :attr:`Network.route_events` in sorted pair order, so two runs agree on
  the exact ``route_changed`` sequence.

A pair whose route is cut keeps its *last-known-good* path in the table
(latency sampling stays finite for code that asks) but is marked
unreachable: messages sent across it are dropped and :meth:`link_blocked`
reports it down so availability probes see the cut.
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Set, Tuple

from ..sim import Environment, Store, Timeout
from .config import NetConfig
from .graph import WanGraph, make_wan_topology

if TYPE_CHECKING:
    from ..network.topology import NetworkTopology

__all__ = ["Network", "RouteChange", "build_routed_network"]

Path = Tuple[str, ...]
Pair = Tuple[str, str]
#: One hop of a route: the fault-table key, its propagation latency and its
#: bandwidth (0 = uncontended).  A same-region message crosses a single
#: ``(region, region)`` leg whose latency is the topology's intra-region
#: latency.
Leg = Tuple[Pair, float, float]


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


def _adjust_count(table: Dict[Pair, int], key: Pair, up: bool) -> None:
    """Reference-count ``key`` up or down; an unmatched down is a no-op."""
    if up:
        table[key] = table.get(key, 0) + 1
    else:
        count = table.get(key, 0)
        if count <= 1:
            table.pop(key, None)
        else:
            table[key] = count - 1


def _pairs(src: str, dst: str, symmetric: bool) -> List[Pair]:
    return [(src, dst)] + ([(dst, src)] if symmetric else [])


class Network:
    """Message transport between regions over a routed WAN graph.

    Parameters
    ----------
    topology:
        The run's regions and their one-way latency matrix.
    jitter_fraction / seed:
        Every sampled latency is jittered uniformly by up to
        ``jitter_fraction`` of itself, from a RNG seeded with ``seed``.
    graph:
        The :class:`WanGraph` to route over along its shortest paths --
        built over ``topology``; the default is the ``"mesh"`` graph.
        Edge bandwidths are fixed at build time
        (``contention_enabled`` is cached), so mutate the graph before
        constructing the network.
    request_bytes_per_token / response_bytes_per_token / kv_bytes_per_token:
        Wire-size coefficients for the contention model (inert while no
        edge has finite bandwidth).
    model_responses:
        When contended, finished responses become phantom reverse-path
        transfers (:meth:`stream_response`) so they share WAN edges with
        pushes -- registered as a replica completion listener by the
        experiment runner.
    """

    def __init__(
        self,
        env: Environment,
        topology: NetworkTopology,
        *,
        jitter_fraction: float = 0.05,
        seed: int = 0,
        graph: Optional[WanGraph] = None,
        request_bytes_per_token: float = 0.0,
        response_bytes_per_token: float = 0.0,
        kv_bytes_per_token: float = 0.0,
        model_responses: bool = True,
    ) -> None:
        if graph is None:
            graph = make_wan_topology("mesh", topology)
        elif graph.regions is not topology:
            raise ValueError("the WAN graph must be built over the network's topology")
        self.env = env
        self.topology = topology
        self.graph = graph
        self.jitter_fraction = jitter_fraction
        self.seed = seed
        self._rng = random.Random(seed)
        self.request_bytes_per_token = request_bytes_per_token
        self.response_bytes_per_token = response_bytes_per_token
        self.kv_bytes_per_token = kv_bytes_per_token
        self.model_responses = model_responses
        #: Whether messages contend for finite link bandwidth: true when any
        #: graph edge carries one, which switches the dispatch path into
        #: computing wire sizes.
        self.contention_enabled = graph.has_finite_bandwidth
        # Traffic accounting (useful for the architecture ablation).
        self.messages_sent = 0
        self.cross_region_messages = 0
        self.probe_count = 0
        self.dropped_messages = 0
        # Contention accounting.
        self.wire_bytes_sent = 0.0
        self.response_streams = 0
        self.response_bytes = 0.0
        # Fault state (driven by repro.faults), keyed per directed edge:
        # blocked region pairs and downed edges (reference-counted), latency
        # spikes, and gray degrades' loss probability / extra jitter.  All
        # start empty so fault-free runs take the fast paths; the fault RNG
        # is created lazily on the first degrade so fault-free runs draw
        # nothing from it.
        self._blocked_links: Dict[Pair, int] = {}
        self._down_edges: Dict[Pair, int] = {}
        self._extra_latency: Dict[Pair, float] = {}
        self._link_loss: Dict[Pair, float] = {}
        self._link_extra_jitter: Dict[Pair, float] = {}
        self._fault_rng: Optional[random.Random] = None
        # Route table over region pairs.  _legs holds each pair's hops and
        # _route_base their summed latency (the hot no-fault sampling path);
        # _unreachable holds blocked and cut pairs.
        self._routes: Dict[Pair, Path] = {}
        self._legs: Dict[Pair, Tuple[Leg, ...]] = {}
        self._route_base: Dict[Pair, float] = {}
        self._unreachable: Set[Pair] = set()
        #: Every route-table diff, in event order (sorted pair order within
        #: one re-convergence) -- the observable ``route_changed`` stream.
        self.route_events: List[RouteChange] = []
        # One FIFO queue per finite-bandwidth edge, created lazily: the
        # transit holding the edge at its head, the ones waiting behind it.
        self._edge_queues: Dict[Pair, Deque[_Transit]] = {}
        for region in graph.region_names():
            intra = ((region, region), topology.one_way(region, region), 0.0)
            self._set_legs((region, region), (intra,))
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

    def _set_legs(self, pair: Pair, legs: Tuple[Leg, ...]) -> None:
        self._legs[pair] = legs
        self._route_base[pair] = sum(latency for _, latency, _ in legs)

    def _reconverge(self, reason: Optional[str]) -> None:
        """Recompute every region pair's route and record the diffs.

        ``reason=None`` is the initial table build: no events, and a
        disconnected pair is a construction error rather than an outage.
        Pairs are visited in sorted order so the event sequence of one
        re-convergence is deterministic.
        """
        # Probes in flight read link_blocked when they land.
        self.env.settle()
        down = frozenset(self._down_edges)
        regions = sorted(self.graph.region_names())
        for src in regions:
            for dst in regions:
                if src == dst:
                    continue
                pair = (src, dst)
                old_path = None if pair in self._unreachable else self._routes.get(pair)
                if pair in self._blocked_links:
                    # A blocked *pair* is a policy statement that these two
                    # regions must not communicate (the partition fault), so
                    # routing around it is not allowed.
                    new_path: Optional[Path] = None
                else:
                    new_path = self.graph.shortest_path(src, dst, down)
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
                    self._set_legs(pair, tuple(
                        ((link.src, link.dst), link.latency_s, link.bandwidth_bytes_per_s)
                        for link in (
                            self.graph.link(u, v) for u, v in zip(new_path, new_path[1:])
                        )
                    ))
                if reason is not None and old_path != new_path:
                    self.route_events.append(
                        RouteChange(self.env.now, reason, src, dst, old_path, new_path)
                    )

    # ------------------------------------------------------------------
    # link faults: partitions and downed edges
    # ------------------------------------------------------------------
    def set_link_blocked(
        self, src: str, dst: str, blocked: bool = True, *, symmetric: bool = True
    ) -> None:
        """(Un)block a region pair: a network partition, as a graph cut.

        Messages sent across a blocked pair are dropped and counted in
        :attr:`dropped_messages`, and probes see the pair down.  Any direct
        edge between the two nodes also goes down so third-party routes
        avoid it, and the route table re-converges -- which is what makes
        the partition observable as ``route_changed`` events.

        Blocks are reference-counted per direction, so overlapping faults
        compose: a pair stays blocked until *every* fault that blocked it
        has healed (an unblock without a matching block is a no-op).
        """
        if src == dst:
            raise ValueError(f"cannot partition region {src!r} from itself")
        for pair in _pairs(src, dst, symmetric):
            _adjust_count(self._blocked_links, pair, blocked)
            if self.graph.has_edge(*pair):
                _adjust_count(self._down_edges, pair, blocked)
        self._reconverge("partition" if blocked else "heal")

    def link_blocked(self, src: str, dst: str) -> bool:
        """Is ``src -> dst`` partitioned away -- blocked, or its route cut?
        Availability probes detect graph cuts the same way as partitions."""
        return (src, dst) in self._unreachable

    def round_trip_blocked(self, src: str, dst: str) -> bool:
        """Is either direction between ``src`` and ``dst`` partitioned away?

        A probe's round trip needs both, so this is :meth:`link_blocked`
        either way; while no pair is cut it is one empty-set test."""
        unreachable = self._unreachable
        return bool(unreachable) and (
            (src, dst) in unreachable or (dst, src) in unreachable
        )

    def set_edge_down(
        self, u: str, v: str, down: bool = True, *, symmetric: bool = True
    ) -> None:
        """Take one graph edge down (or back up) and re-converge routes.

        Downs are reference-counted per direction, like pair blocks, so
        overlapping faults compose.  Unlike a blocked pair, traffic *routes
        around* a downed edge when another path exists."""
        pairs = _pairs(u, v, symmetric)
        for a, b in pairs:
            if not self.graph.has_edge(a, b):
                raise KeyError(f"no edge {a!r} -> {b!r} in the graph")
        for pair in pairs:
            _adjust_count(self._down_edges, pair, down)
        self._reconverge("link-down" if down else "link-up")

    # ------------------------------------------------------------------
    # link faults: latency spikes and gray degrades
    # ------------------------------------------------------------------
    def add_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Add a latency-spike *contribution* to an edge.

        Contributions from overlapping faults sum; each fault later removes
        exactly what it added (:meth:`remove_link_extra_latency`), so spikes
        compose instead of clobbering each other.  Jitter applies to the
        inflated latency, the way real congestion inflates variance along
        with the mean."""
        if extra_s < 0:
            raise ValueError("extra latency must be non-negative")
        if extra_s == 0:
            return
        for pair in _pairs(src, dst, symmetric):
            self._extra_latency[pair] = self._extra_latency.get(pair, 0.0) + extra_s

    def remove_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Remove a contribution previously added with
        :meth:`add_link_extra_latency` (clamped at zero)."""
        if extra_s <= 0:
            return
        for pair in _pairs(src, dst, symmetric):
            remaining = self._extra_latency.get(pair, 0.0) - extra_s
            if remaining <= 1e-12:
                self._extra_latency.pop(pair, None)
            else:
                self._extra_latency[pair] = remaining

    def link_extra_latency(self, src: str, dst: str) -> float:
        """The current latency-spike surcharge on ``src -> dst``."""
        return self._extra_latency.get((src, dst), 0.0)

    def _ensure_fault_rng(self) -> random.Random:
        if self._fault_rng is None:
            # Derived from the network seed but independent of the jitter
            # stream: installing a degrade must not shift the draws that
            # fault-free traffic would have made.
            self._fault_rng = random.Random(
                zlib.crc32(f"link-faults:{self.seed}".encode("utf-8"))
            )
        return self._fault_rng

    def add_link_degrade(
        self,
        src: str,
        dst: str,
        *,
        loss_probability: float = 0.0,
        extra_jitter_fraction: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Degrade an edge: per-message loss probability and extra jitter.

        Contributions from overlapping degrades are additive (loss is
        clamped to 1.0 when drawn).  Probes feel the jitter but are never
        lost -- a gray link looks slow, not dead."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if extra_jitter_fraction < 0:
            raise ValueError("extra jitter fraction must be non-negative")
        self._ensure_fault_rng()
        for pair in _pairs(src, dst, symmetric):
            if loss_probability:
                self._link_loss[pair] = (
                    self._link_loss.get(pair, 0.0) + loss_probability
                )
            if extra_jitter_fraction:
                self._link_extra_jitter[pair] = (
                    self._link_extra_jitter.get(pair, 0.0) + extra_jitter_fraction
                )

    def remove_link_degrade(
        self,
        src: str,
        dst: str,
        *,
        loss_probability: float = 0.0,
        extra_jitter_fraction: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Remove a degrade contribution previously added with
        :meth:`add_link_degrade` (clamped at zero)."""
        for pair in _pairs(src, dst, symmetric):
            for table, amount in (
                (self._link_loss, loss_probability),
                (self._link_extra_jitter, extra_jitter_fraction),
            ):
                if amount <= 0:
                    continue
                remaining = table.get(pair, 0.0) - amount
                if remaining <= 1e-12:
                    table.pop(pair, None)
                else:
                    table[pair] = remaining

    def link_loss_probability(self, src: str, dst: str) -> float:
        """Current per-message loss probability on ``src -> dst``."""
        return min(1.0, self._link_loss.get((src, dst), 0.0))

    def _message_lost(self, src: str, dst: str) -> bool:
        """Per-edge loss draws, in path order."""
        if not self._link_loss:
            return False
        for edge, _, _ in self._legs[(src, dst)]:
            loss = min(1.0, self._link_loss.get(edge, 0.0))
            if loss > 0.0 and self._ensure_fault_rng().random() < loss:
                return True
        return False

    # ------------------------------------------------------------------
    # latency sampling
    # ------------------------------------------------------------------
    def _faulted(self, edge: Pair, latency: float) -> float:
        """One leg's latency plus its spike surcharge and degrade jitter.

        Degrade jitter only ever inflates (congestion variance), and draws
        from the fault RNG so the nominal jitter stream is untouched by the
        degrade being installed."""
        if self._extra_latency:
            latency += self._extra_latency.get(edge, 0.0)
        if self._link_extra_jitter:
            extra = self._link_extra_jitter.get(edge, 0.0)
            if extra > 0:
                latency += self._ensure_fault_rng().uniform(0.0, latency * extra)
        return latency

    def _jittered(self, base: float) -> float:
        if self.jitter_fraction <= 0:
            return base
        jitter = base * self.jitter_fraction
        return max(0.0, base + self._rng.uniform(-jitter, jitter))

    def _sample_base(self, src: str, dst: str) -> float:
        """Pre-jitter one-way latency, summed leg by leg along the route."""
        if not self._extra_latency and not self._link_extra_jitter:
            return self._route_base[(src, dst)]
        base = 0.0
        for edge, latency, _ in self._legs[(src, dst)]:
            base += self._faulted(edge, latency)
        return base

    def sample_one_way(self, src: str, dst: str) -> float:
        """One-way latency sample (routed latency plus bounded jitter)."""
        return self._jittered(self._sample_base(src, dst))

    def sample_rtt(self, src: str, dst: str) -> float:
        return self.sample_one_way(src, dst) + self.sample_one_way(dst, src)

    # ------------------------------------------------------------------
    # wire sizes (the contention model's inputs)
    # ------------------------------------------------------------------
    def request_wire_bytes(self, request: Any) -> float:
        return self.request_bytes_per_token * request.prompt_len

    def push_wire_bytes(self, tokens: int) -> float:
        return self.kv_bytes_per_token * max(0, tokens)

    def response_wire_bytes(self, request: Any) -> float:
        tokens = request.generated_tokens or request.output_len
        return self.response_bytes_per_token * tokens

    # ------------------------------------------------------------------
    # delivery and probes
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
        """Asynchronously place ``item`` into ``inbox`` after the network delay.

        ``extra_delay`` is serialised on top of the sampled link delay --
        used for payload-dependent costs such as shipping pushed KV prefixes
        (the latency sample itself stays payload-independent so RNG draws
        are unchanged).  ``size_bytes`` is the message's wire size: on a
        contended network a cross-region message serialises it through each
        finite-bandwidth edge on its path; otherwise it is ignored.
        Messages across a blocked or cut pair are dropped (the packet-loss
        view of a partition): the item never arrives, even if the link
        heals."""
        self.messages_sent += 1
        if src != dst:
            self.cross_region_messages += 1
        if (src, dst) in self._unreachable or self._message_lost(src, dst):
            self.dropped_messages += 1
            return
        if self.contention_enabled and src != dst:
            self.wire_bytes_sent += size_bytes
            self._start_transit(item, src, dst, inbox, extra_delay, size_bytes)
            return
        delay = self.sample_one_way(src, dst) + extra_delay
        self.env.timeout(delay, (inbox, item)).callbacks.append(_put_into_inbox)

    def probe_delay(self, src: str, dst: str) -> Timeout:
        """Timeout event covering a full probe round trip."""
        return self.env.timeout(self.probe_rtt(src, dst))

    def probe_rtt(self, src: str, dst: str) -> float:
        """Draw one probe's round-trip time (and count the probe)."""
        self.probe_count += 1
        fraction = self.jitter_fraction
        if self._extra_latency or self._link_extra_jitter or fraction <= 0:
            return self.sample_rtt(src, dst)
        # The fault-free path of sample_rtt, inlined (probes run every
        # 100 ms per balancer): the same draws from the same RNG in the
        # same order, out then back, each ``uniform(low, high)``'s own
        # ``low + (high - low) * random()``.
        draw = self._rng.random
        base = self._route_base[(src, dst)]
        high = base * fraction
        low = -high
        rtt = max(0.0, base + (low + (high - low) * draw()))
        base = self._route_base[(dst, src)]
        high = base * fraction
        low = -high
        rtt += max(0.0, base + (low + (high - low) * draw()))
        return rtt

    # ------------------------------------------------------------------
    # contended transit
    # ------------------------------------------------------------------
    def _start_transit(
        self,
        item: Any,
        src: str,
        dst: str,
        inbox: Optional[Store],
        extra_delay: float,
        size_bytes: float,
    ) -> None:
        """Store-and-forward transit: per edge, wait for the shared FIFO,
        transmit ``size/bandwidth``, release, then propagate the hop's
        latency.  Zero-size messages still pass through the queue (they
        wait behind in-flight transmissions -- shared-FIFO semantics), and
        a message already in flight completes over its captured path even
        if an edge on it goes down mid-transit.

        Each hop's delay (fault surcharges and bounded jitter included) is
        drawn at forwarding time, hop by hop rather than once end-to-end,
        because contended hops happen at different sim times.

        Every step is a timer whose callback schedules the next one.  The
        transit starts from a zero-delay timer rather than at once, so its
        first draw comes after whatever else the sending event draws."""
        transit = _Transit(item, inbox, (src, dst), extra_delay, size_bytes)
        self.env.timeout(0.0, transit).callbacks.append(self._transit_started)

    def _transit_started(self, timer: Timeout) -> None:
        transit = timer.value
        if transit.extra_delay > 0:
            delay, transit.extra_delay = transit.extra_delay, 0.0
            self.env.timeout(delay, transit).callbacks.append(self._transit_started)
            return
        # The path is captured here, once the payload is on the wire.
        transit.legs = self._legs[transit.pair]
        self._forward(timer)

    def _forward(self, timer: Timeout) -> None:
        """Send the timer's transit over its next hop, or hand it to its
        inbox."""
        transit = timer.value
        if transit.hop == len(transit.legs):
            if transit.inbox is not None:
                transit.inbox.put_nowait(transit.item)
            return
        edge, _, bandwidth = transit.legs[transit.hop]
        if bandwidth <= 0:
            self._propagate(transit)
            return
        queue = self._edge_queues.get(edge)
        if queue is None:
            queue = self._edge_queues[edge] = deque()
        queue.append(transit)
        if len(queue) == 1:
            self._transmit(transit, bandwidth)

    def _transmit(self, transit: _Transit, bandwidth: float) -> None:
        """``transit`` holds its current edge: occupy it for ``size /
        bandwidth``.  A zero-size message still waits for a zero-delay
        timer, so it releases the edge and draws its hop delay in an event
        of its own, after the one that granted it the edge."""
        size = transit.size_bytes
        delay = size / bandwidth if size > 0 else 0.0
        self.env.timeout(delay, transit).callbacks.append(self._transmitted)

    def _transmitted(self, timer: Timeout) -> None:
        transit = timer.value
        edge, _, bandwidth = transit.legs[transit.hop]
        queue = self._edge_queues[edge]
        queue.popleft()
        if queue:
            self._transmit(queue[0], bandwidth)
        self._propagate(transit)

    def _propagate(self, transit: _Transit) -> None:
        edge, latency, _ = transit.legs[transit.hop]
        transit.hop += 1
        delay = self._jittered(self._faulted(edge, latency))
        self.env.timeout(delay, transit).callbacks.append(self._forward)

    def stream_response(self, request: Any) -> None:
        """Completion listener: occupy the reverse path with the finished
        response's bytes.

        The client-observed latency itself stays the analytic
        ``response_network_delay`` stamp (so the metric identity payload is
        untouched); what this models is the *load* responses place on
        shared WAN edges, which is the other half of the contention story
        -- pushes and response streams queue behind each other."""
        if not self.contention_enabled or not self.model_responses:
            return
        src = request.serving_region or request.region
        dst = request.region
        if src == dst:
            return
        size = self.response_wire_bytes(request)
        self.response_streams += 1
        self.response_bytes += size
        if (src, dst) in self._unreachable:
            return
        self._start_transit(None, src, dst, None, 0.0, size)


class _Transit:
    """One contended message in flight: its payload, where it is going,
    the path it captured and the hop it has reached.  Phantom transfers
    (response streams) occupy link bandwidth but have no inbox."""

    __slots__ = ("item", "inbox", "pair", "extra_delay", "size_bytes", "legs", "hop")

    def __init__(
        self,
        item: Any,
        inbox: Optional[Store],
        pair: Pair,
        extra_delay: float,
        size_bytes: float,
    ) -> None:
        self.item = item
        self.inbox = inbox
        self.pair = pair
        self.extra_delay = extra_delay
        self.size_bytes = size_bytes
        self.legs: Tuple[Leg, ...] = ()
        self.hop = 0


def _put_into_inbox(timeout: Timeout) -> None:
    inbox, item = timeout.value
    inbox.put_nowait(item)


def build_routed_network(
    env: Environment,
    config: NetConfig,
    regions: NetworkTopology,
    *,
    jitter_fraction: float = 0.05,
    seed: int = 0,
    default_kv_bytes_per_token: float = 0.0,
) -> Network:
    """Resolve a frozen :class:`NetConfig` into a live :class:`Network`.

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
    return Network(
        env,
        regions,
        jitter_fraction=jitter_fraction,
        seed=seed,
        graph=graph,
        request_bytes_per_token=config.request_bytes_per_token,
        response_bytes_per_token=config.response_bytes_per_token,
        kv_bytes_per_token=config.kv_bytes_per_token or default_kv_bytes_per_token,
        model_responses=config.model_responses,
    )
