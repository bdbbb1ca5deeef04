"""Tests for the pluggable system registry, typed configs and run_sweep."""

import dataclasses

import pytest

from repro.cluster import Deployment, Frontend, ReplicaSpec
from repro.core import GDPRConstraint, SameContinentConstraint
from repro.experiments import (
    REGISTRY,
    BuildContext,
    ClusterConfig,
    ExperimentConfig,
    SkyWalkerConfig,
    SkyWalkerHybridConfig,
    SystemSpec,
    build_arena_workload,
    build_system,
    register_system,
    registered_system_kinds,
    run_experiment,
    run_sweep,
)
from repro.network import Network, default_topology
from repro.replica import TINY_TEST_PROFILE
from repro.sim import Environment


SEED_KINDS = (
    "gke-gateway",
    "round-robin",
    "least-load",
    "consistent-hash",
    "sglang-router",
    "skywalker-ch",
    "skywalker",
    "region-local",
)


@pytest.fixture
def stack(env):
    """A tiny env/network/deployment/frontend quadruple for build_system."""
    topology = default_topology()
    network = Network(env, topology, jitter_fraction=0.0, seed=0)
    specs = [
        ReplicaSpec(region=region, count=1, profile=TINY_TEST_PROFILE)
        for region in ("us", "eu", "asia")
    ]
    deployment = Deployment(env, specs, topology=topology, network=network)
    frontend = Frontend(env, network)
    return env, network, deployment, frontend


def build(system, stack, **kwargs):
    env, network, deployment, frontend = stack
    return build_system(system, env, network, deployment, frontend, **kwargs)


# ----------------------------------------------------------------------
# catalogue
# ----------------------------------------------------------------------
def test_every_seed_kind_is_registered():
    assert set(SEED_KINDS) <= set(registered_system_kinds())


def test_hybrid_plugin_is_registered_without_runner_edits():
    assert "skywalker-hybrid" in registered_system_kinds()
    assert "skywalker-hybrid" in REGISTRY


def test_unknown_kind_raises_from_registry():
    with pytest.raises(ValueError):
        REGISTRY.get("quantum-balancer")


def test_registry_spec_builds_typed_configs_with_overrides():
    spec = REGISTRY.spec("skywalker", pushing="SP-O", sp_o_threshold=7)
    assert isinstance(spec, SkyWalkerConfig)
    assert spec.kind == "skywalker"
    assert spec.pushing == "SP-O"
    assert spec.sp_o_threshold == 7
    hybrid = REGISTRY.spec("skywalker-hybrid")
    assert isinstance(hybrid, SkyWalkerHybridConfig)


# ----------------------------------------------------------------------
# routing constraints through build_system
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "constraint,expected_cls",
    [("gdpr", GDPRConstraint), ("continent", SameContinentConstraint)],
)
def test_constraints_are_built_for_skywalker(stack, constraint, expected_cls):
    balancers = build(
        SkyWalkerConfig(kind="skywalker", constraint=constraint),
        stack,
        client_regions=("us", "eu", "asia"),
    )
    assert len(balancers) == 3
    for balancer in balancers:
        assert isinstance(balancer.constraint, expected_cls)


def test_unknown_constraint_raises(stack):
    with pytest.raises(ValueError, match="unknown constraint"):
        build(SkyWalkerConfig(kind="skywalker", constraint="lunar"), stack)


# ----------------------------------------------------------------------
# pushing policies through build_system
# ----------------------------------------------------------------------
def test_pushing_policies_resolve_by_registered_name(stack):
    from repro.core import BlindPushing, SelectivePushingOutstanding

    balancers = build(SkyWalkerConfig(kind="skywalker", pushing="BP"), stack)
    assert all(isinstance(b.pushing_policy, BlindPushing) for b in balancers)

    env, network, deployment, _ = stack
    balancers = build_system(
        SkyWalkerConfig(kind="skywalker", pushing="SP-O", sp_o_threshold=5),
        env, network, deployment, Frontend(env, network),
    )
    assert all(isinstance(b.pushing_policy, SelectivePushingOutstanding) for b in balancers)
    assert all(b.pushing_policy.max_outstanding == 5 for b in balancers)


def test_third_party_pushing_policy_via_skywalker_config(stack):
    from repro.core import (
        SelectivePushingPending,
        register_pushing_policy,
        unregister_pushing_policy,
    )

    @register_pushing_policy("sp-test")
    class TestPushing(SelectivePushingPending):
        name = "sp-test"

    try:
        balancers = build(SkyWalkerConfig(kind="skywalker", pushing="sp-test"), stack)
        assert all(isinstance(b.pushing_policy, TestPushing) for b in balancers)
    finally:
        unregister_pushing_policy("sp-test")


def test_unknown_pushing_policy_raises_at_build(stack):
    with pytest.raises(ValueError, match="unknown pushing policy"):
        build(SkyWalkerConfig(kind="skywalker", pushing="magic"), stack)


def test_typed_spec_constraint_through_build_system(stack):
    balancers = build(SkyWalkerConfig(kind="skywalker", constraint="continent"), stack)
    assert all(isinstance(b.constraint, SameContinentConstraint) for b in balancers)


def test_unknown_kind_raises_from_build_system(stack):
    broken = dataclasses.replace(SystemSpec(), kind="quantum-balancer")
    with pytest.raises(ValueError, match="unknown system kind"):
        build(broken, stack)


# ----------------------------------------------------------------------
# registering a new system through the public API
# ----------------------------------------------------------------------
def test_register_system_round_trip(stack):
    calls = []

    @register_system("unit-test-system", config=SystemSpec)
    def _build(spec, ctx):
        calls.append((spec, ctx))
        return []

    try:
        assert "unit-test-system" in registered_system_kinds()
        # REGISTRY.spec accepts the new kind immediately.
        assert build(REGISTRY.spec("unit-test-system"), stack) == []
        spec, ctx = calls[0]
        assert spec.kind == "unit-test-system"
        assert isinstance(ctx, BuildContext)
        # Double registration is rejected unless explicitly replaced.
        with pytest.raises(ValueError, match="already registered"):
            register_system("unit-test-system")(lambda spec, ctx: [])
    finally:
        REGISTRY.unregister("unit-test-system")
    assert "unit-test-system" not in registered_system_kinds()


def test_build_context_regions_union_clients_and_replicas(stack):
    env, network, deployment, frontend = stack
    ctx = BuildContext(
        env=env, network=network, deployment=deployment, frontend=frontend,
        client_regions=("mars",),
    )
    assert ctx.regions == ["asia", "eu", "mars", "us"]


# ----------------------------------------------------------------------
# hash-key precedence
# ----------------------------------------------------------------------
def test_typed_spec_hash_key_overrides_workload():
    workload = build_arena_workload(scale=0.02)
    assert workload.hash_key == "user"
    config = ExperimentConfig(
        system=SkyWalkerConfig(kind="skywalker-ch", hash_key="session"),
        cluster=ClusterConfig(replicas_per_region={"us": 1}, profile=TINY_TEST_PROFILE),
        duration_s=5.0,
    )
    result = run_experiment(config, workload)
    balancer = result.balancers[0]
    probe = workload.programs_by_region["us"][0].stages[0][0]
    assert balancer.hash_key_fn(probe) == probe.session_id


# ----------------------------------------------------------------------
# run_sweep
# ----------------------------------------------------------------------
def test_run_sweep_reuses_one_workload_across_variants():
    workload = build_arena_workload(scale=0.03)
    total_before = workload.total_requests
    sweep = run_sweep(
        [REGISTRY.spec("round-robin"), REGISTRY.spec("least-load")],
        [workload],
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
        ),
        duration_s=20.0,
        seeds=[1],
    )
    # The original workload was never mutated by either run.
    assert workload.total_requests == total_before
    for program in workload.programs_by_region["us"]:
        for request in program.all_requests():
            assert request.sent_time is None
            assert request.replica_name is None
    assert sweep.systems(workload.name) == ["round-robin", "least-load"]
    for system in ("round-robin", "least-load"):
        assert sweep.get(workload.name, system).num_completed > 0


def test_run_sweep_rejects_colliding_display_names():
    workload = build_arena_workload(scale=0.02)
    variants = [
        SkyWalkerConfig(kind="skywalker", pushing="SP-P"),
        SkyWalkerConfig(kind="skywalker", pushing="BP"),
    ]
    with pytest.raises(ValueError, match="label"):
        run_sweep(variants, [workload])
    # Labelled variants are accepted (no overwrite possible).
    labelled = [
        SkyWalkerConfig(kind="skywalker", pushing="SP-P", label="sp-p"),
        SkyWalkerConfig(kind="skywalker", pushing="BP", label="bp"),
    ]
    sweep = run_sweep(
        labelled,
        [workload],
        cluster=ClusterConfig(replicas_per_region={"us": 1}, profile=TINY_TEST_PROFILE),
        duration_s=10.0,
    )
    assert sweep.systems(workload.name) == ["sp-p", "bp"]


def test_fresh_copy_preserves_structure_with_pristine_requests():
    workload = build_arena_workload(scale=0.02)
    copy = workload.fresh_copy()
    assert {region: len(programs) for region, programs in copy.programs_by_region.items()} == {
        region: len(programs) for region, programs in workload.programs_by_region.items()
    }
    assert copy.total_requests == workload.total_requests
    assert copy.hash_key == workload.hash_key
    original = next(iter(workload.programs_by_region.values()))[0]
    cloned = next(iter(copy.programs_by_region.values()))[0]
    assert cloned is not original
    assert cloned.program_id == original.program_id
    first_original = original.stages[0][0]
    first_cloned = cloned.stages[0][0]
    assert first_cloned is not first_original
    assert first_cloned.prompt_tokens == first_original.prompt_tokens
    assert first_cloned.output_len == first_original.output_len


# ----------------------------------------------------------------------
# skywalker-hybrid end to end
# ----------------------------------------------------------------------
def test_skywalker_hybrid_completes_requests_end_to_end():
    workload = build_arena_workload(scale=0.03)
    config = ExperimentConfig(
        system=REGISTRY.spec("skywalker-hybrid", hash_key=workload.hash_key),
        cluster=ClusterConfig(
            replicas_per_region={"us": 1, "eu": 1, "asia": 1}, profile=TINY_TEST_PROFILE
        ),
        duration_s=30.0,
        seed=1,
    )
    result = run_experiment(config, workload)
    assert result.metrics.num_completed > 0
    assert result.metrics.throughput_tokens_per_s > 0
    for balancer in result.balancers:
        assert balancer.routing == "hybrid"
        assert type(balancer).__name__ == "SkyWalkerBalancer"
