"""Unit tests for routing constraints (GDPR, continent, deny lists)."""

import pytest

from repro.core import (
    AllowAll,
    CompositeConstraint,
    DenyRegions,
    GDPRConstraint,
    SameContinentConstraint,
    make_constraint,
    register_constraint,
    registered_constraints,
    unregister_constraint,
)
from repro.network import default_topology, wide_topology

from ..conftest import make_request


def test_allow_all_allows_everything():
    constraint = AllowAll()
    request = make_request(region="eu")
    assert constraint.allows(request, "eu", "us")
    assert constraint.allows(request, "us", "asia")


def test_gdpr_traffic_stays_in_gdpr_scope():
    constraint = GDPRConstraint(default_topology())
    eu_request = make_request(region="eu")
    us_request = make_request(region="us")
    # EU-origin traffic may not leave GDPR scope...
    assert not constraint.allows(eu_request, "eu", "us")
    assert not constraint.allows(eu_request, "eu", "asia")
    assert constraint.allows(eu_request, "eu", "eu")
    # ...but non-GDPR traffic may be offloaded into the EU (§7).
    assert constraint.allows(us_request, "us", "eu")
    assert constraint.allows(us_request, "us", "asia")


def test_same_continent_constraint():
    topology = wide_topology()
    constraint = SameContinentConstraint(topology)
    request = make_request(region="us-east-1")
    assert constraint.allows(request, "us-east-1", "us-west")
    assert not constraint.allows(request, "us-east-1", "eu-west")


def test_deny_regions():
    constraint = DenyRegions(["asia"])
    request = make_request(region="us")
    assert constraint.allows(request, "us", "eu")
    assert not constraint.allows(request, "us", "asia")


def test_composite_requires_all_members_to_allow():
    topology = default_topology()
    constraint = CompositeConstraint([GDPRConstraint(topology), DenyRegions(["asia"])])
    us_request = make_request(region="us")
    eu_request = make_request(region="eu")
    assert constraint.allows(us_request, "us", "eu")
    assert not constraint.allows(us_request, "us", "asia")   # deny list
    assert not constraint.allows(eu_request, "eu", "us")     # GDPR


def test_filter_regions_helper():
    constraint = GDPRConstraint(default_topology())
    eu_request = make_request(region="eu")
    candidates = ["us", "eu", "asia"]
    assert [dst for dst in candidates if constraint.allows(eu_request, "eu", dst)] == ["eu"]


# ----------------------------------------------------------------------
# the constraint registry
# ----------------------------------------------------------------------
def test_builtin_constraints_are_registered():
    assert {"allow-all", "gdpr", "continent"} <= set(registered_constraints())


def test_make_constraint_builds_each_builtin():
    topology = default_topology()
    assert isinstance(make_constraint("allow-all", topology), AllowAll)
    assert isinstance(make_constraint("gdpr", topology), GDPRConstraint)
    assert isinstance(make_constraint("continent", topology), SameContinentConstraint)
    # Lookup is case-insensitive.
    assert isinstance(make_constraint("GDPR", topology), GDPRConstraint)


def test_third_party_constraint_registers_and_resolves_by_name():
    @register_constraint("no-asia")
    def _no_asia(topology):
        return DenyRegions({"asia"})

    try:
        assert "no-asia" in registered_constraints()
        constraint = make_constraint("no-asia", default_topology())
        request = make_request(region="us")
        assert constraint.allows(request, "us", "eu")
        assert not constraint.allows(request, "us", "asia")
    finally:
        unregister_constraint("no-asia")
    with pytest.raises(ValueError):
        make_constraint("no-asia", default_topology())


def test_duplicate_constraint_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_constraint("gdpr")(GDPRConstraint)


def test_unknown_constraint_error_names_registered():
    with pytest.raises(ValueError, match="registered constraints"):
        make_constraint("lunar", default_topology())
