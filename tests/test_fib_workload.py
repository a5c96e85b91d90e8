"""FIB synthesizer and Zipf traffic: determinism, shape, nesting."""

from collections import Counter

import pytest

from repro.ipv6.address import Ipv6Address
from repro.workload.fib import (
    FIB_LENGTH_WEIGHTS,
    synthesize_fib,
    zipf_addresses,
)


class TestSynthesizeFib:
    def test_deterministic_in_seed(self):
        assert synthesize_fib(500, seed=1) == synthesize_fib(500, seed=1)
        assert synthesize_fib(500, seed=1) != synthesize_fib(500, seed=2)

    def test_count_and_uniqueness(self):
        routes = synthesize_fib(1_000, seed=3)
        assert len(routes) == 1_000
        assert len({r.prefix for r in routes}) == 1_000

    def test_default_route_included_in_count(self):
        routes = synthesize_fib(50, seed=4)
        assert routes[0].prefix.length == 0
        assert all(r.prefix.length > 0 for r in routes[1:])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            synthesize_fib(0)

    def test_length_histogram_is_bgp_shaped(self):
        routes = synthesize_fib(5_000, seed=5)
        histogram = Counter(r.prefix.length for r in routes)
        # /48 dominates, /32 second — the shape the weights encode
        assert histogram.most_common(1)[0][0] == 48
        assert histogram[32] > histogram[64]
        allowed = {length for length, _ in FIB_LENGTH_WEIGHTS} | {0}
        assert set(histogram) <= allowed

    def test_prefixes_are_global_unicast(self):
        for route in synthesize_fib(300, seed=6)[1:]:
            assert (route.prefix.network.value >> 125) == 0b001

    def test_aggregatable_nesting(self):
        """Most long prefixes must nest inside a provider block —
        the property that distinguishes this from the uniform
        generate_routes and exercises enclosing chains for real."""
        routes = synthesize_fib(3_000, seed=7)
        providers = [r.prefix for r in routes if 0 < r.prefix.length <= 32]
        specifics = [r.prefix for r in routes if r.prefix.length > 32]
        assert providers and specifics
        nested = sum(
            1 for prefix in specifics
            if any(p.contains(Ipv6Address(prefix.network.value))
                   and p.length < prefix.length for p in providers))
        assert nested / len(specifics) > 0.5


class TestZipfAddresses:
    def test_deterministic_and_sized(self):
        routes = synthesize_fib(200, seed=8)
        a = zipf_addresses(routes, 100, seed=9)
        assert a == zipf_addresses(routes, 100, seed=9)
        assert len(a) == 100

    def test_every_address_matches_some_route(self):
        # Even without a default route every drawn address must hit:
        # each one is sampled inside a chosen route's own prefix.
        routes = synthesize_fib(200, seed=10)[1:]
        prefixes = [r.prefix for r in routes]
        for address in zipf_addresses(routes, 100, seed=11):
            assert any(p.contains(address) for p in prefixes)

    def test_traffic_is_skewed(self):
        """A Zipf law concentrates traffic: the single hottest route
        must absorb a large share of the lookups."""
        routes = synthesize_fib(1_000, seed=12)
        table = {r.prefix: 0 for r in routes}
        addresses = zipf_addresses(routes, 2_000, seed=13)
        ranked = sorted(table, key=lambda p: -p.length)
        for address in addresses:
            for prefix in ranked:
                if prefix.contains(address):
                    table[prefix] += 1
                    break
        top = max(table.values())
        assert top / len(addresses) > 0.10

    def test_bad_arguments(self):
        routes = synthesize_fib(10, seed=14)
        with pytest.raises(ValueError):
            zipf_addresses(routes, -1)
        with pytest.raises(ValueError):
            zipf_addresses([], 5)
