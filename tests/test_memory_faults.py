"""Table-state fault injector: packing, seams, determinism, validation."""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import FaultInjectionError, Ipv6Error, RoutingTableError
from repro.faults.memory import MEMORY_SITES, MemoryFaultInjector
from repro.ipv6.address import Ipv6Address
from repro.routing import TABLE_KINDS, make_table
from repro.routing.memimage import (
    ENTRY_BITS,
    ENTRY_BYTES,
    _pack_fields,
    corrupt_entry,
    pack_entry,
    raw_prefix,
    unpack_entry_raw,
)
from repro.routing.multibit_trie import MultibitTrieRoutingTable
from repro.routing.protected import ProtectedRoutingTable
from repro.workload.fib import synthesize_fib

ROUTES = synthesize_fib(60, seed=12)

#: which memory sites each kind must expose
EXPECTED_SITES = {
    "sequential": ("entry",),
    "balanced-tree": ("tree-node",),
    "cam": ("cam-row",),
    "multibit-trie": ("trie-node", "trie-slot"),
    "bloom": ("bloom-filter", "bloom-bucket"),
}


def loaded(kind):
    table = make_table(kind, capacity=len(ROUTES) + 8)
    table.load(ROUTES)
    return table


# -- packed route records -----------------------------------------------------------


def test_entry_packing_round_trips():
    for entry in ROUTES:
        image = pack_entry(entry)
        assert len(image) == ENTRY_BYTES
        back = unpack_entry_raw(image)
        assert back == entry


def test_entry_bits_matches_bytes():
    assert ENTRY_BITS == ENTRY_BYTES * 8


def test_unpack_rejects_wrong_length():
    with pytest.raises(FaultInjectionError):
        unpack_entry_raw(b"\x00" * (ENTRY_BYTES - 1))


def test_corrupt_entry_flips_exactly_one_bit():
    entry = ROUTES[3]
    for bit in (0, 7, 130, ENTRY_BITS - 1):
        damaged = corrupt_entry(entry, bit)
        delta = [a ^ b for a, b in zip(pack_entry(entry),
                                       pack_entry(damaged))]
        assert sum(bin(d).count("1") for d in delta) == 1
        # flipping the same bit again restores the original
        assert corrupt_entry(damaged, bit) == entry


#: every possible record image (the routes they store are built without
#: validation, as corruption builds them)
IMAGES = st.binary(min_size=ENTRY_BYTES, max_size=ENTRY_BYTES)


@given(IMAGES)
def test_memoized_image_is_the_record_layout(image):
    entry = unpack_entry_raw(image)
    assert pack_entry(entry) == _pack_fields(entry) == image
    assert pack_entry(entry) == image  # read back from the memo


@given(IMAGES, st.integers(0, ENTRY_BITS - 1))
def test_corrupting_a_packed_entry_flips_exactly_that_bit(image, bit):
    entry = unpack_entry_raw(image)
    pack_entry(entry)
    damaged = corrupt_entry(entry, bit)
    # record bit b is bit b%8 of byte b//8: little-endian bit order
    delta = (int.from_bytes(image, "little")
             ^ int.from_bytes(pack_entry(damaged), "little"))
    assert delta == 1 << bit
    assert pack_entry(entry) == image  # the original is untouched


def test_image_memo_is_invisible():
    packed, fresh = ROUTES[5], dataclasses.replace(ROUTES[5])
    image = pack_entry(packed)
    assert packed == fresh
    assert hash(packed) == hash(fresh)
    assert repr(packed) == repr(fresh)
    assert dataclasses.asdict(packed) == dataclasses.asdict(fresh)
    back = pickle.loads(pickle.dumps(packed))
    assert back == fresh and hash(back) == hash(fresh)
    assert pack_entry(back) == image
    # a changed copy never inherits the memo
    retagged = dataclasses.replace(packed, route_tag=packed.route_tag ^ 1)
    assert pack_entry(retagged) == _pack_fields(retagged) != image


# -- fail-stop on an impossible prefix length ---------------------------------------


def test_impossible_prefix_length_raises_on_contains():
    prefix = raw_prefix(ROUTES[3].prefix.network.value, 203)
    with pytest.raises(Ipv6Error) as caught:
        prefix.contains(Ipv6Address(1))
    assert str(caught.value) == "prefix length out of range: 203"


def test_sequential_scan_fails_stop_where_it_reaches_the_damage():
    table = loaded("sequential")
    candidates = [route.prefix.network for route in ROUTES]
    before = {address: table.lookup(address) for address in candidates}
    index = len(ROUTES) // 2
    length = table.memory_layout()[index].prefix.length
    for bit in range(8):  # rewrite the length byte to 203
        if (length ^ 203) >> bit & 1:
            table.corrupt_memory("entry", index, 16 * 8 + bit)
    assert table.memory_layout()[index].prefix.length == 203
    answered = reached = 0
    for address, result in before.items():
        if result is not None and result.steps <= index:
            after = table.lookup(address)
            assert (after.entry, after.steps) == (result.entry, result.steps)
            answered += 1
        else:
            with pytest.raises(RoutingTableError) as caught:
                table.lookup(address)
            assert str(caught.value) == (
                "corrupt sequential state during lookup: "
                "Ipv6Error: prefix length out of range: 203")
            reached += 1
    assert answered and reached


def test_corrupt_entry_never_validates_silently():
    """Damage to the length byte must build (silent corruption), even
    when the resulting prefix length is semantically impossible."""
    entry = ROUTES[3]
    # the length byte occupies bits 128..135 (LSB-first within the
    # byte); flipping its top bit makes length >= 128
    damaged = corrupt_entry(entry, 16 * 8 + 7)
    assert damaged.prefix.length == entry.prefix.length ^ 0x80


# -- memory seams -------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_memory_sites_and_records(kind):
    table = loaded(kind)
    assert table.memory_sites() == EXPECTED_SITES[kind]
    protected = ProtectedRoutingTable(loaded(kind))
    assert protected.memory_sites() == EXPECTED_SITES[kind]
    for site in table.memory_sites():
        records = table.memory_records(site)
        assert records and all(records)
        # the wrapper reads its inner table's memory, record for record
        assert protected.memory_records(site) == records


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_unknown_site_rejected(kind):
    table = loaded(kind)
    with pytest.raises(RoutingTableError):
        table.memory_records("no-such-site")
    with pytest.raises(RoutingTableError):
        table.corrupt_memory("no-such-site", 0, 0)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_out_of_range_index_rejected(kind):
    table = loaded(kind)
    for site in table.memory_sites():
        records = table.memory_records(site)
        for index in (len(records), -1):
            with pytest.raises(RoutingTableError):
                table.corrupt_memory(site, index, 0)
        # a rejected strike damages nothing
        assert table.memory_records(site) == records


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_corrupt_memory_changes_the_record_image(kind):
    table = loaded(kind)
    for site in table.memory_sites():
        before = table.memory_records(site)
        detail = table.corrupt_memory(site, 0, 0)
        assert isinstance(detail, str) and detail
        after_table = loaded(kind)
        # the corrupted table's state must differ from a clean rebuild
        assert table.memory_records(site) != after_table.memory_records(
            site) or before != after_table.memory_records(site)
        table = loaded(kind)  # fresh table for the next site


# -- the trie's memory reads against the walk they were first written with ----------


def reference_nodes(trie):
    """Every trie node in pre-order, children by ascending chunk."""
    stack = [trie._root]
    while stack:
        node = stack.pop()
        yield node
        children = node.children
        stack.extend(children[chunk]
                     for chunk in sorted(children, reverse=True))


def reference_targets(trie, site):
    """``(node, chunk or None)`` per record of *site*, in record order."""
    if site == "trie-node":
        return [(node, None) for node in reference_nodes(trie)
                if node.children]
    return [(node, chunk) for node in reference_nodes(trie)
            for chunk in sorted(node.slots)]


def reference_records(trie, site):
    if site == "trie-node":
        return [b"".join(chunk.to_bytes(2, "big")
                         for chunk in sorted(node.children))
                for node, _ in reference_targets(trie, site)]
    return [chunk.to_bytes(2, "big") + pack_entry(node.slots[chunk])
            for node, chunk in reference_targets(trie, site)]


def reference_strike(trie, site, index, bit):
    """The strike :meth:`corrupt_memory` makes, on the reference walk."""
    node, chunk = reference_targets(trie, site)[index]
    if site == "trie-node":
        old_chunk = sorted(node.children)[bit // 16]
        new_chunk = old_chunk ^ (1 << (15 - bit % 16))
        child = node.children.pop(old_chunk)
        lost = new_chunk in node.children
        node.children[new_chunk] = child
        return (f"trie-node[{index}] child {old_chunk}->{new_chunk}"
                + (" overwriting sibling" if lost else ""))
    if bit < 16:
        new_chunk = chunk ^ (1 << (15 - bit))
        entry = node.slots.pop(chunk)
        lost = new_chunk in node.slots
        node.slots[new_chunk] = entry
        return (f"trie-slot[{index}] tag {chunk}->{new_chunk}"
                + (" overwriting slot" if lost else ""))
    node.slots[chunk] = corrupt_entry(node.slots[chunk], bit - 16)
    return f"trie-slot[{index}] entry bit {bit - 16} (chunk {chunk})"


@pytest.mark.parametrize("prefixes,stride,seed",
                         [(60, 8, 1), (300, 8, 2), (120, 4, 3),
                          (200, 6, 4), (1, 8, 5)])
def test_trie_reads_match_the_reference_walk(prefixes, stride, seed):
    """A random trie, struck again and again: each read gives the
    reference walk's records in its order, and each strike lands where
    the reference walk would have put it."""
    routes = synthesize_fib(prefixes, seed=seed)
    trie = MultibitTrieRoutingTable(capacity=len(routes) + 8, stride=stride)
    trie.load(routes)
    twin = copy.deepcopy(trie)  # struck in step, on the reference walk
    rng = random.Random(seed)
    sites = trie.memory_sites()
    for _ in range(25):
        for site in sites:
            assert trie.memory_records(site) == \
                reference_records(trie, site)
        site = rng.choice([site for site in sites
                           if trie.memory_records(site)])
        records = trie.memory_records(site)
        index = rng.randrange(len(records))
        bit = rng.randrange(len(records[index]) * 8)
        assert trie.corrupt_memory(site, index, bit) == \
            reference_strike(twin, site, index, bit)
        for site in sites:
            assert reference_records(trie, site) == \
                reference_records(twin, site)


# -- the injector -------------------------------------------------------------------


def test_injector_is_deterministic():
    results = []
    for _ in range(2):
        table = loaded("sequential")
        injector = MemoryFaultInjector(seed=5)
        injector.inject(table, flips=4)
        results.append(injector.stats())
    assert results[0] == results[1]
    assert results[0]["faults_injected"] == 4


def test_injector_streams_are_independent_per_site():
    """Striking one site never perturbs another site's draw sequence."""
    table_a = loaded("multibit-trie")
    both = MemoryFaultInjector(seed=9)
    both.inject(table_a, flips=2)  # rotates trie-node, trie-slot

    table_b = loaded("multibit-trie")
    node_only = MemoryFaultInjector(seed=9, sites=("trie-node",))
    node_only.inject(table_b, flips=1)
    assert both.faults[0].to_dict() == node_only.faults[0].to_dict()


def test_injector_rejects_unknown_site():
    with pytest.raises(FaultInjectionError):
        MemoryFaultInjector(seed=0, sites=("entry", "bogus"))


def test_injector_skips_sites_the_table_lacks():
    table = loaded("cam")
    injector = MemoryFaultInjector(seed=0, sites=("entry",))
    injector.inject(table, flips=3)
    assert injector.faults_injected == 0


def test_injector_sites_are_canonically_ordered():
    injector = MemoryFaultInjector(seed=0,
                                   sites=("bloom-bucket", "entry"))
    assert injector.sites == tuple(
        s for s in MEMORY_SITES if s in ("entry", "bloom-bucket"))
