"""Unit tests for latency-based DNS resolution."""

import pytest

from repro.network import GeoDNS, default_topology


@pytest.fixture
def dns():
    dns = GeoDNS(default_topology())
    dns.register("lb-us", "us")
    dns.register("lb-eu", "eu")
    dns.register("lb-asia", "asia")
    return dns


def test_resolve_returns_same_region_endpoint(dns):
    assert dns.resolve("us") == "lb-us"
    assert dns.resolve("eu") == "lb-eu"
    assert dns.resolve("asia") == "lb-asia"


def test_resolve_skips_unhealthy_endpoints(dns):
    dns.set_health("lb-us", False)
    resolved = dns.resolve("us")
    assert resolved in ("lb-eu", "lb-asia")
    # The next-nearest region to the US in the default topology is Europe.
    assert resolved == "lb-eu"


def test_resolve_returns_none_when_everything_is_down(dns):
    for endpoint in dns.endpoints():
        dns.set_health(endpoint, False)
    assert dns.resolve("us") is None


def test_health_restoration_reverts_resolution(dns):
    dns.set_health("lb-us", False)
    dns.set_health("lb-us", True)
    assert dns.resolve("us") == "lb-us"


def test_register_validates_region(dns):
    with pytest.raises(KeyError):
        dns.register("lb-mars", "mars")


def test_set_health_of_unknown_endpoint_raises(dns):
    with pytest.raises(KeyError):
        dns.set_health("nope", True)


def test_resolution_counter_increments(dns):
    before = dns.resolutions
    dns.resolve("us")
    dns.resolve("eu")
    assert dns.resolutions == before + 2
