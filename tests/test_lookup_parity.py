"""``lookup_batch`` equals per-address ``lookup`` on damaged tables too.

The batch fast paths (the sequential and CAM tables answer a batch
from per-mask hash maps) must report exactly what the per-address
scan reports, on any state a memory upset can leave behind: same
entries, same steps, same ``stats``, and a fail-stop
``RoutingTableError`` exactly where a lone lookup raises. The seeded
sweep strikes every memory site of every kind; the targeted tests pin
the damage shapes that maps keyed by prefix length get wrong.
"""

import random

import pytest

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing import (
    CamRoutingTable,
    MultibitTrieRoutingTable,
    SequentialRoutingTable,
    TABLE_KINDS,
    make_table,
)
from repro.routing.entry import RouteEntry
from repro.workload.fib import synthesize_fib, zipf_addresses

ROUTES = synthesize_fib(200, seed=5)
PROBES = zipf_addresses(ROUTES, 100, seed=5)
#: one-bit strikes per kind, rotating over the kind's memory sites
TRIALS = 80


def route(text, interface=0):
    return RouteEntry(prefix=Ipv6Prefix.parse(text),
                      next_hop=Ipv6Address(interface + 1),
                      interface=interface)


def addr(text):
    return Ipv6Address.parse(text)


def batch_and_single(tables, probes):
    """Run ``lookup_batch`` on ``tables[0]`` and per-address ``lookup``
    on ``tables[1]``; each answer list is None when its path raised."""
    batched, single = tables
    try:
        in_batch = batched.lookup_batch(probes)
    except RoutingTableError:
        in_batch = None
    try:
        one_by_one = [single.lookup(address) for address in probes]
    except RoutingTableError:
        one_by_one = None
    return in_batch, one_by_one


def twin_tables(make, routes):
    """Two identical tables from the factory *make*, loaded with *routes*."""
    tables = (make(), make())
    for table in tables:
        table.load(routes)
    return tables


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_batch_matches_single_lookups_on_damaged_tables(kind):
    raised = 0
    for trial in range(TRIALS):
        tables = twin_tables(
            lambda: make_table(kind, capacity=len(ROUTES)), ROUTES)
        sites = tables[0].memory_sites()
        site = sites[trial % len(sites)]
        rng = random.Random(trial)
        index = rng.randrange(tables[0].memory_record_count(site))
        bit = rng.randrange(len(tables[0].memory_record(site, index)) * 8)
        for table in tables:
            table.corrupt_memory(site, index, bit)
        in_batch, one_by_one = batch_and_single(tables, PROBES)
        where = f"{kind} trial {trial}: {site}[{index}] bit {bit}"
        assert (in_batch is None) == (one_by_one is None), where
        if in_batch is None:
            raised += 1
            continue
        assert in_batch == one_by_one, where
        assert tables[0].stats == tables[1].stats, where
    # the sweep must exercise answers, not only fail-stops
    assert raised < TRIALS


def test_sequential_batch_probes_a_shortened_entry_in_scan_order():
    """A /48 whose length byte drops to /32 keeps its host bits, so it
    matches nothing; the /44 behind it in the scan still wins over the
    /32 behind that."""
    tables = twin_tables(SequentialRoutingTable, [
        route("2001:db9:1::/48", 1),
        route("2001:db8:10::/44", 2),
        route("2001:db8::/32", 3),
    ])
    for table in tables:
        assert table.memory_layout()[0].prefix.length == 48
        table.corrupt_memory("entry", 0, 16 * 8 + 4)  # 48 ^ 16 == 32
        assert table.memory_layout()[0].prefix.length == 32
    probes = [addr("2001:db8:10::1"), addr("2001:db8:ffff::1")]
    in_batch, one_by_one = batch_and_single(tables, probes)
    assert [(r.interface, r.steps) for r in one_by_one] == [(2, 2), (3, 3)]
    assert in_batch == one_by_one
    assert tables[0].stats == tables[1].stats


def test_sequential_batch_raises_only_where_the_scan_reaches_the_damage():
    """A length byte raised past /128 fails the scans that reach it,
    and no other."""
    tables = twin_tables(SequentialRoutingTable, [
        route("2001:db8:1::/64", 1),
        route("2001:db8::/48", 2),
    ])
    for table in tables:
        table.corrupt_memory("entry", 1, 16 * 8 + 7)  # 48 + 128 == 176
    before = [addr("2001:db8:1::5")]
    in_batch, one_by_one = batch_and_single(tables, before)
    assert [(r.interface, r.steps) for r in one_by_one] == [(1, 1)]
    assert in_batch == one_by_one
    reaching = before + [addr("2001:db8::5")]
    assert batch_and_single(tables, reaching) == (None, None)


def test_cam_batch_matches_each_line_by_its_own_mask():
    """A mask bit cleared in the second /48 line widens that line to a
    /47; the batch must not reuse the first /48 line's mask for it."""
    tables = twin_tables(CamRoutingTable, [
        route("2001:db8:1::/48", 1),
        route("2001:db8:2::/48", 2),
    ])
    for table in tables:
        # mask bit 80 (from the least significant end) is the /48's last
        table.corrupt_memory("cam-row", 1, 255 - 80)
    probes = [addr("2001:db8:3::1"), addr("2001:db8:1::1")]
    in_batch, one_by_one = batch_and_single(tables, probes)
    assert [r.interface for r in one_by_one] == [2, 1]
    assert in_batch == one_by_one


def test_trie_finds_a_host_route_at_the_last_level():
    host = route("2001:db8::1/128", 1)
    trie = MultibitTrieRoutingTable()
    trie.load([route("::/0"), host])
    result = trie.lookup(addr("2001:db8::1"))
    assert (result.entry, result.steps) == (host, trie.max_depth())
    assert trie.lookup(addr("2001:db8::2")).entry.prefix.length == 0
