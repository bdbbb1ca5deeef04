"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import os

import pytest

from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE, ReplicaServer
from repro.sim import Environment
from repro.workloads.request import Request

_token_counter = itertools.count(1_000_000)


def make_request(
    prompt_len: int = 32,
    output_len: int = 4,
    *,
    user_id: str = "user-0",
    session_id: str = "session-0",
    region: str = "us",
    prefix=(),
    sent_time: float = 0.0,
) -> Request:
    """A request with a fresh (non-shared) prompt of ``prompt_len`` tokens,
    optionally prefixed by an explicit shared ``prefix``."""
    fresh = tuple(next(_token_counter) for _ in range(max(0, prompt_len - len(prefix))))
    request = Request(
        prompt_tokens=tuple(prefix) + fresh,
        output_len=output_len,
        user_id=user_id,
        session_id=session_id,
        region=region,
    )
    request.sent_time = sent_time
    request.lb_arrival_time = sent_time
    return request


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def topology():
    return default_topology()


@pytest.fixture
def network(env, topology) -> Network:
    return Network(env, topology, jitter_fraction=0.0, seed=0)


@pytest.fixture
def tiny_replica(env) -> ReplicaServer:
    return ReplicaServer(env, "us/replica-0", "us", TINY_TEST_PROFILE)


# ----------------------------------------------------------------------
# strict-invariants mode
# ----------------------------------------------------------------------
# REPRO_STRICT_INVARIANTS=1 runs every structure's check_invariants() after
# each mutation that can corrupt accounting (RadixCache evictions, trie
# capacity enforcement and target removal, page alloc/free, the
# availability monitor's records, dispatch notes and replica health
# changes, and the batcher's step clock after each plan and decode
# step).  Unset, the checks run only for tests marked
# @pytest.mark.strict_invariants (the small golden-grid tests); "0"
# force-disables everywhere.  CI tier-1 sets the flag to "1".


def _strict_invariants_enabled(request) -> bool:
    flag = os.environ.get("REPRO_STRICT_INVARIANTS", "")
    if flag == "0":
        return False
    if flag:
        return True
    return request.node.get_closest_marker("strict_invariants") is not None


@pytest.fixture(autouse=True)
def strict_invariants(request, monkeypatch):
    """Invariant drift checks after every eviction / page transition."""
    if not _strict_invariants_enabled(request):
        yield False
        return

    from repro.core.availability import AvailabilityMonitor
    from repro.core.prefix_tree import PrefixTree
    from repro.mem.paging import PageAllocator
    from repro.replica.batching import ContinuousBatcher
    from repro.replica.kv_cache import RadixCache

    radix_evict = RadixCache.evict
    trie_enforce = PrefixTree._enforce_capacity
    trie_remove_target = PrefixTree.remove_target
    page_alloc = PageAllocator.alloc
    page_free = PageAllocator.free
    monitor_record = AvailabilityMonitor._record_replica_probes
    monitor_dispatch = AvailabilityMonitor.note_dispatch
    monitor_health = AvailabilityMonitor._on_replica_health
    batcher_plan = ContinuousBatcher.plan_step
    batcher_decode = ContinuousBatcher.complete_decode_step

    def checked_evict(self, num_tokens, now=0.0):
        evicted = radix_evict(self, num_tokens, now)
        if evicted > 0:
            self.check_invariants()
        return evicted

    def checked_enforce(self):
        before = self._total_tokens
        trie_enforce(self)
        if self._total_tokens != before:
            self.check_invariants()

    def checked_remove_target(self, target):
        trie_remove_target(self, target)
        self.check_invariants()

    def checked_alloc(self, tokens):
        block = page_alloc(self, tokens)
        self.check_invariants()
        return block

    def checked_free(self, block):
        page_free(self, block)
        self.check_invariants()

    def checked_record(self):
        monitor_record(self)
        self.check_invariants()

    def checked_dispatch(self, replica_name):
        monitor_dispatch(self, replica_name)
        self.check_invariants()

    def checked_health(self, replica):
        monitor_health(self, replica)
        self.check_invariants()

    def checked_plan(self, now):
        plan = batcher_plan(self, now)
        self.check_invariants()
        return plan

    def checked_decode(self, now):
        finished = batcher_decode(self, now)
        self.check_invariants()
        return finished

    monkeypatch.setattr(RadixCache, "evict", checked_evict)
    monkeypatch.setattr(PrefixTree, "_enforce_capacity", checked_enforce)
    monkeypatch.setattr(PrefixTree, "remove_target", checked_remove_target)
    monkeypatch.setattr(PageAllocator, "alloc", checked_alloc)
    monkeypatch.setattr(PageAllocator, "free", checked_free)
    monkeypatch.setattr(AvailabilityMonitor, "_record_replica_probes", checked_record)
    monkeypatch.setattr(AvailabilityMonitor, "note_dispatch", checked_dispatch)
    monkeypatch.setattr(AvailabilityMonitor, "_on_replica_health", checked_health)
    monkeypatch.setattr(ContinuousBatcher, "plan_step", checked_plan)
    monkeypatch.setattr(ContinuousBatcher, "complete_decode_step", checked_decode)
    yield True


@pytest.fixture
def make_tiny_replica(env):
    counter = itertools.count()

    def factory(region: str = "us", **kwargs) -> ReplicaServer:
        index = next(counter)
        return ReplicaServer(env, f"{region}/replica-{index}", region, TINY_TEST_PROFILE, **kwargs)

    return factory
