"""Simulated wide-area regions: the latency-matrix topology and geo-DNS.

The transport between regions, :class:`~repro.net.Network`, lives in
:mod:`repro.net` and is re-exported here.
"""

from ..net import Network
from .dns import GeoDNS
from .topology import NetworkTopology, RegionInfo, default_topology, wide_topology

__all__ = [
    "NetworkTopology",
    "RegionInfo",
    "default_topology",
    "wide_topology",
    "Network",
    "GeoDNS",
]
