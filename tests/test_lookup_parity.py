"""Lookups answer as a scan does, on damaged tables too.

The sequential table and the CAM answer every lookup from a first-match
index, not by scanning. The linear scans they replace live here as the
reference: a lookup must report the entry and the steps the scan
reports, add the same to ``stats``, and fail with the same
``RoutingTableError`` message where the scan fails, on any state a
memory upset or a write sequence can leave behind. ``lookup_batch`` is
per-address ``lookup`` on every kind, which the seeded sweep checks on
damaged tables of all five. The targeted tests pin the damage shapes
that maps keyed by prefix length get wrong, and the interleaved test
catches an index that outlives a write.
"""

import dataclasses
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
from repro.routing.entry import LookupResult, RouteEntry
from repro.routing.multibit_trie import DEPTH
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


# -- the reference scans ------------------------------------------------------


def sequential_scan(table):
    """The linear scan over the stored order: the first entry whose
    prefix contains the address; a hit at position *i* costs ``i + 1``
    steps, a miss ``len(table)``."""
    entries = table.memory_layout()

    def scan(address):
        for steps, entry in enumerate(entries, 1):
            if entry.prefix.contains(address):
                return entry, steps
        return None, len(entries)
    return scan


def cam_scan(table):
    """The priority encoder: the first line, in line order, whose own
    stored match pair takes the address (``value & mask == line
    value``); every search costs one step."""
    lines = [(int.from_bytes(record[:16], "big"),
              int.from_bytes(record[16:32], "big"), entry)
             for record, entry in zip(table.memory_records("cam-row"),
                                      table)]

    def scan(address):
        value = address.value
        for line_value, mask, entry in lines:
            if value & mask == line_value:
                return entry, 1
        return None, 1
    return scan


SCANS = {"sequential": sequential_scan, "cam": cam_scan}


def scanned(table, probes):
    """What per-address lookups of *probes* must do to *table*, by the
    reference scan: ``(results, stats)``, or ``(message, stats)`` when
    a lookup must fail, with the stats the lookups before it added."""
    scan = SCANS[table.kind](table)
    stats = dataclasses.replace(table.stats)
    results = []
    for address in probes:
        try:
            entry, steps = scan(address)
        except Exception as exc:
            return (f"corrupt {table.kind} state during lookup: "
                    f"{type(exc).__name__}: {exc}"), stats
        stats.lookups += 1
        stats.total_lookup_steps += steps
        if entry is None:
            stats.misses += 1
            results.append(None)
        else:
            stats.hits += 1
            results.append(LookupResult(entry, steps))
    return results, stats


def looked_up(table, probes):
    """Per-address lookups of *probes*: ``(results, stats)``, or the
    first failure's message with the stats up to it."""
    results = []
    for address in probes:
        try:
            results.append(table.lookup(address))
        except RoutingTableError as exc:
            return str(exc), table.stats
    return results, table.stats


def check_against_scan(table, probes, where=""):
    """Look *probes* up one by one, assert that answers and stats are
    the reference scan's, and return the answers (or the message)."""
    expected = scanned(table, probes)
    assert looked_up(table, probes) == expected, where
    return expected[0]


# -- lookup_batch is per-address lookup ---------------------------------------


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


def strike(table, trial):
    """The seeded one-bit strike of *trial*: its site rotates over the
    table's memory sites, its record and bit come from the trial seed."""
    sites = table.memory_sites()
    site = sites[trial % len(sites)]
    rng = random.Random(trial)
    records = table.memory_records(site)
    index = rng.randrange(len(records))
    bit = rng.randrange(len(records[index]) * 8)
    table.corrupt_memory(site, index, bit)
    return f"{table.kind} trial {trial}: {site}[{index}] bit {bit}"


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_batch_matches_single_lookups_on_damaged_tables(kind):
    raised = 0
    for trial in range(TRIALS):
        tables = twin_tables(
            lambda: make_table(kind, capacity=len(ROUTES)), ROUTES)
        for table in tables:
            where = strike(table, trial)
        in_batch, one_by_one = batch_and_single(tables, PROBES)
        assert (in_batch is None) == (one_by_one is None), where
        if in_batch is None:
            raised += 1
            continue
        assert in_batch == one_by_one, where
        assert tables[0].stats == tables[1].stats, where
    # the sweep must exercise answers, not only fail-stops
    assert raised < TRIALS


@pytest.mark.parametrize("kind", sorted(SCANS))
def test_lookups_match_the_scan_on_damaged_tables(kind):
    """Each trial looks up once before the strike, so the index the
    table built then must not answer for the damaged state."""
    for trial in range(TRIALS):
        table = make_table(kind, capacity=len(ROUTES))
        table.load(ROUTES)
        check_against_scan(table, PROBES[:10])
        where = strike(table, trial)
        check_against_scan(table, PROBES, where)


@pytest.mark.parametrize("kind", sorted(SCANS))
def test_lookups_match_the_scan_between_writes(kind):
    """Every write drops the index: a lookup after an insert, an
    in-place replace, a removal, a strike, a clear or a load sees the
    table as the scan does."""
    table = make_table(kind)
    probes = [addr("2001:db8:1::1"), addr("2001:db8:2::1"),
              addr("2001:db8:3::1"), addr("2001:db8:1:5::1"),
              addr("3000::1")]
    routes = [route("2001:db8:1::/48", 1), route("2001:db8:2::/48", 2),
              route("2001:db8::/32", 3)]
    # record 0 is the /64; this flips bit 7 of its network in both
    # record layouts, so it stops taking 2001:db8:1:5::1
    site, bit = {"sequential": ("entry", 0),
                 "cam": ("cam-row", 7)}[kind]
    writes = [
        ("load", lambda: table.load(routes)),
        ("insert", lambda: table.insert(route("2001:db8:1:5::/64", 5))),
        ("replace", lambda: table.insert(route("2001:db8:2::/48", 6))),
        ("remove", lambda: table.remove(Ipv6Prefix.parse(
            "2001:db8:1::/48"))),
        ("strike", lambda: table.corrupt_memory(site, 0, bit)),
        ("clear", table.clear),
        ("load onto empty", lambda: table.load(routes)),
        ("load onto routes", lambda: table.load(
            [route("2001:db8:1:5::/64", 7)])),
    ]
    answers = []
    check_against_scan(table, probes, "empty")
    for name, write in writes:
        write()
        answers.append([result and result.interface for result
                        in check_against_scan(table, probes, name)])
    assert answers == [
        [1, 2, 3, 1, None],
        [1, 2, 3, 5, None],
        [1, 6, 3, 5, None],
        [3, 6, 3, 5, None],
        [3, 6, 3, 3, None],
        [None, None, None, None, None],
        [1, 2, 3, 1, None],
        [1, 2, 3, 7, None],
    ]


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
    and no other, with the scan's own message."""
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
    message, _ = looked_up(tables[1], reaching)
    assert message == ("corrupt sequential state during lookup: "
                       "Ipv6Error: prefix length out of range: 176")
    assert scanned(tables[1], reaching)[0] == message


def test_cam_batch_matches_each_line_by_its_own_mask():
    """A mask bit cleared in the second /48 line widens that line to a
    /47; the lookup must not reuse the first /48 line's mask for it."""
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
    assert (result.entry, result.steps) == (host, DEPTH)
    assert trie.lookup(addr("2001:db8::2")).entry.prefix.length == 0
