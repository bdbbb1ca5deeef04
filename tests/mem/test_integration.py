"""End-to-end guarantees of the tiered memory subsystem.

Three things are on the line here:

* **Bit-identity when off.**  The default config (and the inert
  ``never-offload`` policy) must leave the legacy flat-KV simulation
  untouched -- same eviction victims, same grants, same ``to_dict()``.
* **Determinism when on.**  A tiered sweep run across worker processes is
  bit-identical to the serial loop, including under a forced ``spawn``
  start method where the worker bootstrap must re-import plugin modules.
* **Telemetry gating.**  ``RunMetrics.memory`` appears exactly when the
  config says tiering is observable, and never perturbs legacy payloads.
"""

import multiprocessing
import random

import pytest

pytestmark = pytest.mark.strict_invariants

from repro.experiments import (
    REGISTRY,
    ClusterConfig,
    ExperimentConfig,
    SweepExecutor,
    build_arena_workload,
    run_experiment,
    run_sweep,
)
from repro.experiments.sweep import plugin_modules
from repro.mem import LruDemote, MemoryConfig, register_offload_policy
from repro.replica import TINY_TEST_PROFILE
from repro.replica.memory import KVMemoryManager

TIERED = MemoryConfig(
    page_size=16,
    hbm_fraction=0.5,
    host_capacity_tokens=4096,
    disk_capacity_tokens=16384,
    offload="lru-demote",
)


# Registered at import time: the forced-spawn test below resolves this by
# name inside worker processes, which only works because the sweep bootstrap
# re-imports this module (harvested from the factory's ``__module__``).
@register_offload_policy("mem-test-demote", replace_existing=True)
class _SpawnVisibleDemote(LruDemote):
    name = "mem-test-demote"


def tiny_cluster(memory=None):
    return ClusterConfig(
        replicas_per_region={"us": 1, "eu": 1},
        profile=TINY_TEST_PROFILE,
        memory=memory,
    )


def run_tiny(memory, seed=1, duration=30.0):
    workload = build_arena_workload(scale=0.03, seed=7)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker", hash_key=workload.hash_key),
        cluster=tiny_cluster(memory),
        duration_s=duration,
        seed=seed,
    )
    return run_experiment(config, workload)


# ----------------------------------------------------------------------
# golden-grid victim identity: never-offload == legacy, admit by admit
# ----------------------------------------------------------------------
def _drive(manager: KVMemoryManager):
    """Replay a fixed admit/release schedule, logging every observable."""
    rng = random.Random(0)
    trace = []
    now = 0.0
    running = []
    for request_id in range(80):
        shared = [rng.randrange(4)] * 8
        prompt = shared + [rng.randrange(32) for _ in range(rng.randrange(8, 400))]
        now += 0.25
        grant = manager.admit(request_id, prompt, now)
        if grant is None:
            trace.append(("reject", request_id))
        else:
            running.append(request_id)
            trace.append(
                (
                    "admit",
                    request_id,
                    grant.cached_tokens,
                    grant.new_prompt_tokens,
                    grant.promoted_tokens,
                    grant.promotion_stall_s,
                )
            )
        if len(running) >= 3:
            victim = running.pop(0)
            manager.release(victim, now)
        trace.append(("state", manager.cache.total_tokens, manager.used_tokens))
    manager.check_invariants()
    return trace


def test_never_offload_preserves_legacy_eviction_victims():
    legacy = KVMemoryManager(TINY_TEST_PROFILE)
    tiered = KVMemoryManager(
        TINY_TEST_PROFILE,
        memory=MemoryConfig(host_capacity_tokens=4096, offload="never-offload"),
    )
    # The inert policy means the demotion hook is never installed...
    assert tiered.cache.on_evict is None
    assert tiered.tiers is not None and tiered.tiers.offload_policy.inert
    # ...so the exact same victims are chosen and every grant is identical.
    assert _drive(tiered) == _drive(legacy)
    assert tiered.tiers.demoted_tokens == 0
    assert sum(tiered.tiers.tier_hit_tokens.values()) == 0


def test_lru_demote_catches_what_legacy_drops():
    legacy = KVMemoryManager(TINY_TEST_PROFILE)
    tiered = KVMemoryManager(TINY_TEST_PROFILE, memory=TIERED)
    _drive(legacy)
    _drive(tiered)
    # Pressure evictions routed into the host tier instead of vanishing.
    assert tiered.tiers.demoted_tokens > 0
    assert tiered.tiers.stores["host"].inserted_tokens > 0


# ----------------------------------------------------------------------
# run-level bit-identity and telemetry gating
# ----------------------------------------------------------------------
def test_default_memory_config_is_bit_identical_to_none():
    baseline = run_tiny(None).metrics.to_dict()
    explicit = run_tiny(MemoryConfig()).metrics.to_dict()
    assert "memory" not in baseline
    assert explicit == baseline


def test_never_offload_run_matches_legacy_outside_telemetry():
    baseline = run_tiny(None).metrics.to_dict()
    tiered = run_tiny(
        MemoryConfig(host_capacity_tokens=4096, offload="never-offload")
    ).metrics.to_dict()
    # The only delta an inert tier may introduce is its own telemetry.
    memory = tiered.pop("memory")
    assert tiered == baseline
    assert memory["demoted_tokens"] == 0
    assert memory["promoted_tokens"] == 0


def test_tiered_run_reports_memory_metrics():
    metrics = run_tiny(TIERED, duration=40.0).metrics
    assert metrics.memory is not None
    payload = metrics.to_dict()["memory"]
    assert payload["demoted_tokens"] > 0
    assert payload["hbm_page_occupancy"] > 0
    assert [tier["name"] for tier in payload["tiers"]] == ["host", "disk"]


# ----------------------------------------------------------------------
# sweep determinism: serial == workers, fork or spawn
# ----------------------------------------------------------------------
def _tiered_sweep(executor: SweepExecutor):
    workload = build_arena_workload(scale=0.03, seed=7)
    return executor.run(
        [REGISTRY.spec("skywalker"), REGISTRY.spec("consistent-hash")],
        [workload],
        cluster=tiny_cluster(TIERED),
        duration_s=25.0,
        seeds=[1],
    )


def _payloads(result):
    return {
        (workload, system): result.get(workload, system).to_dict()
        for workload in result.workloads()
        for system in result.systems(workload)
    }


def test_tiered_sweep_parallel_is_bit_identical_to_serial():
    serial = _tiered_sweep(SweepExecutor(workers=1))
    parallel = _tiered_sweep(SweepExecutor(workers=2))
    assert _payloads(parallel) == _payloads(serial)
    sample = next(iter(_payloads(serial).values()))
    assert sample["memory"]["demoted_tokens"] > 0


def _plugin_constraint_module() -> str:
    """Import :mod:`.constraint_plugin` and return its name.

    Imported here, not at the top of this module: a spawned worker that
    re-imports only this module must not pick up the constraint as a side
    effect, or the bootstrap test below would pass without the bootstrap
    harvesting routing constraints.
    """
    from . import constraint_plugin

    return constraint_plugin.__name__


def test_plugin_modules_cover_runtime_registrations():
    constraint_module = _plugin_constraint_module()
    modules = plugin_modules()
    assert __name__ in modules  # mem-test-demote registered above
    # A module whose only registration is a routing constraint.
    assert constraint_module in modules
    assert any("repro.mem" in module for module in modules)
    assert any("repro.faults" in module for module in modules)
    assert "__main__" not in modules


def test_forced_spawn_workers_bootstrap_plugin_registrations():
    # Under spawn, workers start with a clean interpreter: the custom
    # "mem-test-demote" policy and "mem-test-no-asia" constraint only
    # resolve because the pool initializer re-imports their modules before
    # any task runs.
    _plugin_constraint_module()
    memory = MemoryConfig(
        page_size=16,
        hbm_fraction=0.5,
        host_capacity_tokens=4096,
        offload="mem-test-demote",
    )
    workloads = [build_arena_workload(scale=0.03, seed=7)]
    kwargs = dict(cluster=tiny_cluster(memory), duration_s=20.0, seeds=[1])
    systems = [
        REGISTRY.spec("skywalker"),
        REGISTRY.spec("round-robin"),
        REGISTRY.spec("skywalker", label="plugin-constraint", constraint="mem-test-no-asia"),
    ]
    serial = SweepExecutor(workers=1).run(systems, workloads, **kwargs)
    spawned = SweepExecutor(
        workers=2, mp_context=multiprocessing.get_context("spawn")
    ).run(systems, workloads, **kwargs)
    assert _payloads(spawned) == _payloads(serial)
    assert "plugin-constraint" in serial.systems("chatbot-arena")


# ----------------------------------------------------------------------
# crash/recover composition with durable tiers
# ----------------------------------------------------------------------
def _crashed_server(preserve_disk: bool):
    from repro.replica import ReplicaServer
    from repro.sim import Environment

    env = Environment()
    server = ReplicaServer(
        env,
        "us/replica-0",
        "us",
        profile=TINY_TEST_PROFILE,
        memory=MemoryConfig(disk_capacity_tokens=16384, offload="lru-demote"),
    )
    tiers = server.batcher.memory.tiers
    tiers.demote(tuple(range(64)), hits=1, last_access=0.0, now=0.0)
    assert tiers.stores["disk"].inserted_tokens == 64
    server.fail()
    server.recover(preserve_disk=preserve_disk)
    return server.batcher.memory.tiers


def test_recover_drops_disk_tier_by_default():
    tiers = _crashed_server(preserve_disk=False)
    assert tiers.export_tier("disk") == []


def test_recover_can_reattach_disk_tier():
    tiers = _crashed_server(preserve_disk=True)
    exported = tiers.export_tier("disk")
    assert len(exported) == 1
    # The durable segment is servable after recovery.
    found = tiers.lookup(tuple(range(64)), 0)
    assert found is not None
    promoted, stall = tiers.promote(found, 0, now=1.0)
    assert promoted == 64
    assert stall > 0
