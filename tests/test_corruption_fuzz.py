"""Fuzz proof of the fail-stop lookup contract on corrupted tables.

Satellite of the memory-fault work: whatever state damage a table has
absorbed, ``lookup`` either answers or raises ``RoutingTableError`` —
never ``KeyError``, ``IndexError``, ``RecursionError`` or any other
structural exception, and never loops forever. The trie and Bloom
structures carry dict/array indirection that historically made them the
risky ones, so they get the densest fuzzing.
"""

import random

import pytest

from repro.errors import RoutingTableError
from repro.faults.memory import MemoryFaultInjector
from repro.ipv6.address import Ipv6Address
from repro.routing import TABLE_KINDS, make_table
from repro.workload.fib import synthesize_fib, zipf_addresses

ROUTES = synthesize_fib(70, seed=33)
ADDRESSES = zipf_addresses(ROUTES, 25, seed=8)

#: extra fuzz rounds for the structures with pointer/dict indirection
ROUNDS = {"multibit-trie": 24, "bloom": 24}
DEFAULT_ROUNDS = 10


def loaded(kind):
    table = make_table(kind, capacity=len(ROUTES) + 8)
    table.load(ROUTES)
    return table


def assert_fail_stop(table, addresses):
    for address in addresses:
        try:
            table.lookup(address)
        except RoutingTableError:
            pass  # the one allowed failure mode


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_single_flips_never_escape_routing_error(kind):
    for seed in range(ROUNDS.get(kind, DEFAULT_ROUNDS)):
        table = loaded(kind)
        MemoryFaultInjector(seed=seed).inject(table, flips=1)
        assert_fail_stop(table, ADDRESSES)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_burst_damage_never_escapes_routing_error(kind):
    """Many flips per table — compound damage across all sites."""
    for seed in range(ROUNDS.get(kind, DEFAULT_ROUNDS) // 2):
        table = loaded(kind)
        MemoryFaultInjector(seed=1000 + seed).inject(table, flips=12)
        assert_fail_stop(table, ADDRESSES)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_random_addresses_on_damaged_tables(kind):
    """Probe with adversarial random addresses, not just FIB-shaped
    traffic, so corrupted dispatch paths are reached from every angle."""
    rng = random.Random(4242)
    wild = [Ipv6Address(rng.getrandbits(128)) for _ in range(40)]
    wild += [Ipv6Address(0), Ipv6Address((1 << 128) - 1)]
    for seed in range(6):
        table = loaded(kind)
        MemoryFaultInjector(seed=77 + seed).inject(table, flips=6)
        assert_fail_stop(table, wild)


def test_trie_deep_chunk_rekey_is_fail_stop():
    """Directed: re-keying trie child pages (the exact damage class
    that used to raise KeyError from dict dispatch) must stay inside
    the contract."""
    table = loaded("multibit-trie")
    count = len(table.memory_records("trie-node"))
    for index in range(min(count, 8)):
        table.corrupt_memory("trie-node", index, (index * 3) % 16)
    assert_fail_stop(table, ADDRESSES)


def test_bloom_filter_bit_damage_is_fail_stop():
    """Directed: counting-Bloom vector damage produces false negatives
    and false positives, never structural exceptions."""
    table = loaded("bloom")
    count = len(table.memory_records("bloom-filter"))
    for index in range(count):
        for bit in (0, 3, 11):
            table.corrupt_memory("bloom-filter", index, bit)
    assert_fail_stop(table, ADDRESSES)


def test_batch_lookup_is_fail_stop_too():
    for kind in sorted(TABLE_KINDS):
        table = loaded(kind)
        MemoryFaultInjector(seed=5).inject(table, flips=8)
        try:
            table.lookup_batch(ADDRESSES)
        except RoutingTableError:
            pass
