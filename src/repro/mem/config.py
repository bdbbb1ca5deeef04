"""Frozen, picklable configuration for the tiered KV memory model.

``MemoryConfig`` travels inside :class:`repro.experiments.ClusterConfig`
through sweep workers, so it carries only names and scalars: the offload
*policy name* is resolved against its registry wherever the replica is
actually built (exactly like pushing/constraint/selection policies and
fault kinds).

The default config is **legacy-equivalent by construction**: ``page_size=1``
and ``hbm_fraction=1.0`` leave HBM accounting token-granular and unrounded,
no offload tier has capacity, and push transfer costs are disabled -- every
event in a run is bit-identical to a build without this subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .paging import round_to_pages
from .policies import make_offload_policy
from .tiers import TieredKVStore, TierSpec, TransferModel

__all__ = ["MemoryConfig"]


@dataclass(frozen=True)
class MemoryConfig:
    """How one replica's KV memory is paged, tiered and moved.

    Parameters
    ----------
    page_size:
        Token slots per KV page; HBM capacity is rounded *down* to a page
        multiple (sglang's ``max_total_num_tokens // page_size * page_size``)
        and lower-tier segments occupy whole pages.  ``1`` = legacy
        token-granular accounting.
    hbm_fraction:
        Fraction of the profile's KV capacity actually given to the HBM
        radix cache (sglang's ``mem-fraction-static`` knob); the Fig. 12
        sweep shrinks this to force eviction traffic.
    host_capacity_tokens / disk_capacity_tokens:
        Offload tier sizes in token slots; ``0`` disables a tier.
    offload:
        Registered offload-policy name (resolved lazily, including inside
        sweep worker processes).
    host_* / disk_*:
        Transfer cost of crossing into that tier, charged per crossing as
        ``latency + bytes / bandwidth`` (defaults: PCIe-4-ish host link,
        NVMe-ish disk).
    push_latency_s / push_bandwidth_bytes_per_s:
        Transfer cost model for *pushed prefixes* on the dispatch path
        (Fig. 6's BP vs SP-O/SP-P): a blind push ships the whole prompt's
        KV, a selective push only the unmatched suffix.  A bandwidth of
        ``0`` disables push costs (legacy behaviour).
    """

    page_size: int = 1
    hbm_fraction: float = 1.0
    host_capacity_tokens: int = 0
    disk_capacity_tokens: int = 0
    offload: str = "never-offload"
    host_latency_s: float = 100e-6
    host_bandwidth_bytes_per_s: float = 24e9
    disk_latency_s: float = 2e-3
    disk_bandwidth_bytes_per_s: float = 3e9
    push_latency_s: float = 0.0
    push_bandwidth_bytes_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise ValueError("page_size must be at least 1")
        if not 0.0 < self.hbm_fraction <= 1.0:
            raise ValueError("hbm_fraction must be in (0, 1]")
        if self.host_capacity_tokens < 0 or self.disk_capacity_tokens < 0:
            raise ValueError("tier capacities must be non-negative")
        if min(self.host_latency_s, self.disk_latency_s, self.push_latency_s) < 0:
            raise ValueError("transfer latencies must be non-negative")
        if self.host_bandwidth_bytes_per_s <= 0 or self.disk_bandwidth_bytes_per_s <= 0:
            raise ValueError("tier bandwidths must be positive")
        if self.push_bandwidth_bytes_per_s < 0:
            raise ValueError("push bandwidth must be non-negative")
        if not self.offload:
            raise ValueError("offload policy name must be non-empty")

    # ------------------------------------------------------------------
    @property
    def tiering_enabled(self) -> bool:
        """At least one offload tier exists."""
        return self.host_capacity_tokens > 0 or self.disk_capacity_tokens > 0

    @property
    def push_enabled(self) -> bool:
        """Pushed prefixes pay a modelled transfer cost."""
        return self.push_bandwidth_bytes_per_s > 0

    @property
    def telemetry_enabled(self) -> bool:
        """Anything here differs from the flat legacy model, so
        ``MemoryMetrics`` should appear in run payloads."""
        return (
            self.tiering_enabled
            or self.push_enabled
            or self.page_size > 1
            or self.hbm_fraction < 1.0
        )

    # ------------------------------------------------------------------
    def hbm_capacity_tokens(self, profile_capacity_tokens: int) -> int:
        """Usable HBM token budget: fraction applied, then page-rounded."""
        return round_to_pages(
            int(profile_capacity_tokens * self.hbm_fraction), self.page_size
        )

    def tier_specs(self, bytes_per_token: int) -> Tuple[TierSpec, ...]:
        specs = []
        if self.host_capacity_tokens > 0:
            specs.append(
                TierSpec(
                    name="host",
                    capacity_tokens=self.host_capacity_tokens,
                    transfer=TransferModel(
                        latency_s=self.host_latency_s,
                        bandwidth_bytes_per_s=self.host_bandwidth_bytes_per_s,
                        bytes_per_token=bytes_per_token,
                    ),
                )
            )
        if self.disk_capacity_tokens > 0:
            specs.append(
                TierSpec(
                    name="disk",
                    capacity_tokens=self.disk_capacity_tokens,
                    transfer=TransferModel(
                        latency_s=self.disk_latency_s,
                        bandwidth_bytes_per_s=self.disk_bandwidth_bytes_per_s,
                        bytes_per_token=bytes_per_token,
                    ),
                )
            )
        return tuple(specs)

    def push_transfer(self, bytes_per_token: int) -> Optional[TransferModel]:
        """Transfer model for pushed prefixes, or ``None`` when disabled."""
        if not self.push_enabled:
            return None
        return TransferModel(
            latency_s=self.push_latency_s,
            bandwidth_bytes_per_s=self.push_bandwidth_bytes_per_s,
            bytes_per_token=bytes_per_token,
        )

    def build_store(self, bytes_per_token: int) -> Optional[TieredKVStore]:
        """Build this replica's tiered store (``None`` when no tier has
        capacity -- the manager then runs the untouched legacy path)."""
        if not self.tiering_enabled:
            return None
        return TieredKVStore(
            self.tier_specs(bytes_per_token),
            make_offload_policy(self.offload),
            page_size=self.page_size,
        )
