"""Message delivery and probing over the simulated wide-area network.

The :class:`Network` is a thin layer between simulation actors: it samples a
latency from the topology (with optional jitter), waits for it, and then
delivers the payload into the destination's inbox store or invokes a
callback.  Probes (heartbeat RTTs) are modelled the same way, which is what
makes "probe all replicas from every load balancer" measurably more
expensive than SkyWalker's two-layer design.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, Optional, Tuple

from ..sim import Environment, Store, Timeout
from .topology import NetworkTopology

__all__ = ["Network"]


class Network:
    """Latency-faithful message transport between regions."""

    def __init__(
        self,
        env: Environment,
        topology: NetworkTopology,
        *,
        jitter_fraction: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.topology = topology
        self.jitter_fraction = jitter_fraction
        self.seed = seed
        self._rng = random.Random(seed)
        # Traffic accounting (useful for the architecture ablation).
        self.messages_sent = 0
        self.cross_region_messages = 0
        self.probe_count = 0
        # Link-fault state (driven by repro.faults): blocked directed links
        # drop messages, extra latency models congestion spikes, and gray
        # degrades add loss probability / extra jitter.  All start empty so
        # fault-free runs take byte-identical code paths; the fault RNG is
        # created lazily on the first degrade so fault-free runs draw nothing.
        self._blocked_links: Dict[Tuple[str, str], int] = {}
        self._extra_latency: Dict[Tuple[str, str], float] = {}
        self._link_loss: Dict[Tuple[str, str], float] = {}
        self._link_extra_jitter: Dict[Tuple[str, str], float] = {}
        self._fault_rng: Optional[random.Random] = None
        self.dropped_messages = 0

    # ------------------------------------------------------------------
    # link faults (partitions and latency spikes)
    # ------------------------------------------------------------------
    def set_link_blocked(
        self, src: str, dst: str, blocked: bool = True, *, symmetric: bool = True
    ) -> None:
        """(Un)block a link: messages sent over a blocked link are dropped
        and counted in :attr:`dropped_messages` (a network partition).

        Blocks are reference-counted per direction, so overlapping faults
        compose: a link stays down until *every* fault that blocked it has
        healed (an unblock without a matching block is a no-op).
        """
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            if blocked:
                self._blocked_links[pair] = self._blocked_links.get(pair, 0) + 1
            else:
                count = self._blocked_links.get(pair, 0)
                if count <= 1:
                    self._blocked_links.pop(pair, None)
                else:
                    self._blocked_links[pair] = count - 1

    def link_blocked(self, src: str, dst: str) -> bool:
        """Is the directed ``src -> dst`` link currently partitioned away?"""
        return (src, dst) in self._blocked_links

    def set_edge_down(
        self, u: str, v: str, down: bool = True, *, symmetric: bool = True
    ) -> None:
        """Take one physical link down (or bring it back).

        On the pairwise legacy network an "edge" and a region pair are the
        same thing, so this is exactly :meth:`set_link_blocked`; the routed
        network (:class:`repro.net.RoutedNetwork`) overrides it to down a
        graph edge and re-converge routes around the cut instead.
        """
        self.set_link_blocked(u, v, down, symmetric=symmetric)

    def set_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Add ``extra_s`` seconds of one-way latency to a link (``0``
        clears the spike).  Jitter applies to the inflated latency, the
        way real congestion inflates variance along with the mean."""
        if extra_s < 0:
            raise ValueError("extra latency must be non-negative")
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            if extra_s == 0:
                self._extra_latency.pop(pair, None)
            else:
                self._extra_latency[pair] = extra_s

    def add_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Add a latency-spike *contribution* to a link.

        Contributions from overlapping faults sum; each fault later removes
        exactly what it added (:meth:`remove_link_extra_latency`), so spikes
        compose instead of clobbering each other."""
        if extra_s < 0:
            raise ValueError("extra latency must be non-negative")
        if extra_s == 0:
            return
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            self._extra_latency[pair] = self._extra_latency.get(pair, 0.0) + extra_s

    def remove_link_extra_latency(
        self, src: str, dst: str, extra_s: float, *, symmetric: bool = True
    ) -> None:
        """Remove a contribution previously added with
        :meth:`add_link_extra_latency` (clamped at zero)."""
        if extra_s <= 0:
            return
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
            remaining = self._extra_latency.get(pair, 0.0) - extra_s
            if remaining <= 1e-12:
                self._extra_latency.pop(pair, None)
            else:
                self._extra_latency[pair] = remaining

    def link_extra_latency(self, src: str, dst: str) -> float:
        """The current latency-spike surcharge on ``src -> dst``."""
        return self._extra_latency.get((src, dst), 0.0)

    # ------------------------------------------------------------------
    # gray link degrades (loss probability + extra jitter)
    # ------------------------------------------------------------------
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
        """Degrade a link: per-message loss probability and extra jitter.

        Contributions from overlapping degrades are additive (loss is
        clamped to 1.0 when drawn).  Probes feel the jitter but are never
        lost -- a gray link looks slow, not dead."""
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        if extra_jitter_fraction < 0:
            raise ValueError("extra jitter fraction must be non-negative")
        self._ensure_fault_rng()
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
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
        pairs = [(src, dst)] + ([(dst, src)] if symmetric else [])
        for pair in pairs:
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
        if not self._link_loss:
            return False
        loss = min(1.0, self._link_loss.get((src, dst), 0.0))
        if loss <= 0.0:
            return False
        return self._ensure_fault_rng().random() < loss

    # ------------------------------------------------------------------
    def _sample_base(self, src: str, dst: str) -> float:
        """Pre-jitter one-way latency: topology base, spike surcharges and
        the (fault-RNG) degrade jitter.  The routed network overrides this
        hook to sum per-edge contributions along a multi-hop path; on the
        legacy pairwise matrix it is byte-for-byte the historical code."""
        base = self.topology.one_way(src, dst)
        if self._extra_latency:
            base += self._extra_latency.get((src, dst), 0.0)
        if self._link_extra_jitter:
            # Degrade jitter only ever inflates (congestion variance), and
            # draws from the fault RNG so the nominal jitter stream is
            # untouched by the degrade being installed.
            extra = self._link_extra_jitter.get((src, dst), 0.0)
            if extra > 0:
                base += self._ensure_fault_rng().uniform(0.0, base * extra)
        return base

    def sample_one_way(self, src: str, dst: str) -> float:
        """One-way latency sample (base latency plus bounded jitter)."""
        base = self._sample_base(src, dst)
        if self.jitter_fraction <= 0:
            return base
        jitter = base * self.jitter_fraction
        return max(0.0, base + self._rng.uniform(-jitter, jitter))

    def sample_rtt(self, src: str, dst: str) -> float:
        return self.sample_one_way(src, dst) + self.sample_one_way(dst, src)

    # ------------------------------------------------------------------
    # wire-size hooks (contention model; inert on the pairwise network)
    # ------------------------------------------------------------------
    @property
    def contention_enabled(self) -> bool:
        """Whether messages contend for finite link bandwidth.

        Always ``False`` here: the legacy pairwise network has no shared
        links.  :class:`repro.net.RoutedNetwork` reports ``True`` when any
        graph edge carries finite bandwidth, which is what switches the
        dispatch path into computing wire sizes."""
        return False

    def request_wire_bytes(self, request: Any) -> float:
        """Wire size of a request message (0 on the uncontended network)."""
        return 0.0

    def push_wire_bytes(self, tokens: int) -> float:
        """Wire size of ``tokens`` worth of pushed KV prefix (0 here)."""
        return 0.0

    def response_wire_bytes(self, request: Any) -> float:
        """Wire size of a finished request's response stream (0 here)."""
        return 0.0

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
        are unchanged).  ``size_bytes`` is the message's wire size; the
        pairwise network ignores it (links here have no bandwidth), the
        routed network serialises it through each finite-bandwidth edge on
        the path.  Messages over a partitioned link are dropped (the
        packet-loss view of a partition): the item never arrives, even if
        the link heals."""
        self.messages_sent += 1
        if src != dst:
            self.cross_region_messages += 1
        if (src, dst) in self._blocked_links:
            self.dropped_messages += 1
            return
        if self._message_lost(src, dst):
            self.dropped_messages += 1
            return
        delay = self.sample_one_way(src, dst) + extra_delay
        self.env.timeout(delay, (inbox, item)).callbacks.append(_put_into_inbox)

    # ------------------------------------------------------------------
    def probe_delay(self, src: str, dst: str) -> Timeout:
        """Timeout event covering a full probe round trip."""
        self.probe_count += 1
        return self.env.timeout(self.sample_rtt(src, dst))


def _put_into_inbox(timeout: Timeout) -> None:
    inbox, item = timeout.value
    inbox.put(item)
