"""Tests for the adaptive interaction between prefix affinity and load.

§5.1 of the paper: "the prefix tree variant is more adaptive: when the prefix
hit ratio is low, it explores other underutilized replicas", and §3.3 argues
that prefix-aware routing must be combined with load balancing.  These tests
pin down that behaviour: affinity wins while the favourite replica is not
overloaded, and load balancing takes over when it is.
"""

import pytest

from repro.core import SkyWalkerBalancer
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE

from ..conftest import make_request


@pytest.fixture
def balancer(env, network, make_tiny_replica):
    balancer = SkyWalkerBalancer(
        env, "sw@us", "us", network,
        probe_interval_s=0.05,
        balance_abs_threshold=4,
        balance_rel_threshold=1.5,
    )
    for _ in range(3):
        balancer.add_replica(make_tiny_replica("us"))
    return balancer


def test_affinity_sticks_while_favourite_is_lightly_loaded(balancer):
    replicas = balancer.local_replicas()
    shared = tuple(range(70_000, 70_200))
    balancer.replica_trie.insert(shared, replicas[0].name)
    request = make_request(prompt_len=240, prefix=shared, region="us")
    chosen = balancer._select_replica(request, replicas)
    assert chosen is replicas[0]


def test_affinity_yields_when_favourite_is_severely_imbalanced(balancer):
    replicas = balancer.local_replicas()
    shared = tuple(range(71_000, 71_200))
    balancer.replica_trie.insert(shared, replicas[0].name)
    # Make the favourite look far busier than its peers via the monitor's
    # optimistic dispatch counters (the same signal routing uses live).
    for _ in range(10):
        balancer.monitor.note_dispatch(replicas[0].name)
    request = make_request(prompt_len=240, prefix=shared, region="us")
    chosen = balancer._select_replica(request, replicas)
    assert chosen is not replicas[0]


def test_low_hit_ratio_prefers_least_loaded(balancer):
    replicas = balancer.local_replicas()
    shared = tuple(range(72_000, 72_020))  # only 20 shared tokens
    balancer.replica_trie.insert(shared, replicas[0].name)
    balancer.monitor.note_dispatch(replicas[0].name)
    balancer.monitor.note_dispatch(replicas[1].name)
    # 20 / 400 tokens is far below the 0.5 threshold -> load balancing wins.
    request = make_request(prompt_len=400, prefix=shared, region="us")
    chosen = balancer._select_replica(request, replicas)
    assert chosen is replicas[2]


def test_estimated_load_combines_probe_and_recent_dispatches(balancer):
    replicas = balancer.local_replicas()
    assert balancer.estimated_load(replicas[0]) == 0
    balancer.monitor.note_dispatch(replicas[0].name)
    balancer.monitor.note_dispatch(replicas[0].name)
    assert balancer.estimated_load(replicas[0]) == 2


def test_severely_imbalanced_requires_both_thresholds(balancer):
    replicas = balancer.local_replicas()
    # Busy, but everyone is equally busy: not imbalanced.
    for replica in replicas:
        for _ in range(6):
            balancer.monitor.note_dispatch(replica.name)
    assert not balancer.severely_imbalanced(replicas[0], replicas)
    # Now make one replica clearly busier than the rest.
    for _ in range(8):
        balancer.monitor.note_dispatch(replicas[0].name)
    assert balancer.severely_imbalanced(replicas[0], replicas)
