"""Frozen configuration for the routed WAN (picklable into sweep workers).

``NetConfig`` follows the house config contract: a frozen dataclass carrying
only registry *names* plus scalars, resolved into live objects
(:func:`repro.net.routed.build_routed_network`) inside each worker process.
Attach one to :class:`~repro.experiments.config.ClusterConfig` via its
``network`` field; the default ``NetConfig()`` is the plain
:class:`~repro.net.Network` (mesh graph, no bandwidth contention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

__all__ = ["NetConfig"]


@dataclass(frozen=True)
class NetConfig:
    """How to build the network for an experiment.

    ``wan_bandwidth_bytes_per_s=0`` (the default) leaves every edge
    uncontended: messages pay only routed latency and wire sizes are never
    computed; on the ``"mesh"`` topology that is the default network.  A positive bandwidth turns the topology's WAN
    edges into shared FIFOs and switches dispatch into computing wire
    sizes from the per-token byte rates below.
    """

    #: Registered WAN topology builder (``repro.net.graph``).
    topology: str = "mesh"
    #: Extra scalar kwargs for the topology builder, as sorted
    #: ``(name, value)`` pairs so the config stays hashable/picklable.
    topology_args: Tuple[Tuple[str, float], ...] = ()
    #: Bandwidth of WAN edges in bytes/s; 0 = uncontended (infinite).
    wan_bandwidth_bytes_per_s: float = 0.0
    #: Wire bytes per prompt token for request messages.
    request_bytes_per_token: float = 2.0
    #: Wire bytes per output token for response streams.
    response_bytes_per_token: float = 2.0
    #: Wire bytes per pushed KV-prefix token (0 = take the profile's
    #: ``kv_bytes_per_token``, the physically-faithful default).
    kv_bytes_per_token: float = 0.0
    #: Model finished responses as reverse-path transfers (they share WAN
    #: edges with pushes, which is half the contention story).
    model_responses: bool = True

    def __post_init__(self) -> None:
        if self.wan_bandwidth_bytes_per_s < 0:
            raise ValueError(
                f"wan_bandwidth_bytes_per_s must be non-negative, "
                f"got {self.wan_bandwidth_bytes_per_s!r}"
            )
        for label, value in (
            ("request_bytes_per_token", self.request_bytes_per_token),
            ("response_bytes_per_token", self.response_bytes_per_token),
            ("kv_bytes_per_token", self.kv_bytes_per_token),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value!r}")
        for entry in self.topology_args:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ValueError(
                    f"topology_args entries must be (name, value) pairs, got {entry!r}"
                )
