"""Multi-tier, page-aligned KV memory model (``repro.mem``).

The flat token budget of :mod:`repro.replica.memory` becomes a hierarchy:

* :mod:`repro.mem.paging` -- page-aligned allocation (sglang-style pools):
  capacity rounding, internal fragmentation, LIFO free-list reuse.
* :mod:`repro.mem.tiers` -- HBM <-> host RAM <-> disk tier stores with a
  shared transfer engine charging latency + bytes/bandwidth through the sim
  clock (async demotions, synchronous promotion stalls).
* :mod:`repro.mem.policies` -- ``register_offload_policy`` /
  ``register_admission_policy`` registries with built-ins ``never-offload``
  (the legacy-equivalent default), ``lru-demote`` and ``pin-hot-prefixes``.
* :mod:`repro.mem.config` -- the picklable :class:`MemoryConfig` carried by
  ``ClusterConfig`` into sweep workers.

See ``docs/MEMORY.md`` for the model and the determinism contract.
"""

from .config import DEFAULT_MEMORY_CONFIG, MemoryConfig
from .paging import PageAllocator, PageBlock, round_to_pages
from .policies import (
    AdmissionPolicy,
    AdmitAll,
    LruDemote,
    NeverOffload,
    OffloadPolicy,
    PinHotPrefixes,
    SegmentMeta,
    SizeCap,
    make_admission_policy,
    make_offload_policy,
    register_admission_policy,
    register_offload_policy,
    registered_admission_policies,
    registered_offload_policies,
    unregister_admission_policy,
    unregister_offload_policy,
)
from .tiers import TieredKVStore, TierSegment, TierSpec, TierStore, TransferModel

__all__ = [
    "MemoryConfig",
    "DEFAULT_MEMORY_CONFIG",
    "PageAllocator",
    "PageBlock",
    "round_to_pages",
    "TransferModel",
    "TierSpec",
    "TierSegment",
    "TierStore",
    "TieredKVStore",
    "SegmentMeta",
    "OffloadPolicy",
    "AdmissionPolicy",
    "NeverOffload",
    "LruDemote",
    "PinHotPrefixes",
    "AdmitAll",
    "SizeCap",
    "register_offload_policy",
    "unregister_offload_policy",
    "registered_offload_policies",
    "make_offload_policy",
    "register_admission_policy",
    "unregister_admission_policy",
    "registered_admission_policies",
    "make_admission_policy",
]
