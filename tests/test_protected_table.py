"""Integrity-protected tables: never-silent faults, graceful degradation."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingTableError
from repro.faults.memory import MemoryFaultInjector
from repro.routing import (
    PROTECTION_MODES,
    ProtectedRoutingTable,
    TABLE_KINDS,
    make_table,
)
from repro.routing.memimage import ENTRY_BYTES, _pack_fields, unpack_entry_raw
from repro.workload.fib import synthesize_fib, zipf_addresses

ROUTES = synthesize_fib(80, seed=21)
ADDRESSES = zipf_addresses(ROUTES, 60, seed=3)


def build(kind, protection):
    inner = make_table(kind, capacity=len(ROUTES) + 8)
    table = ProtectedRoutingTable(inner, protection=protection)
    table.load(ROUTES)
    table.checkpoint()
    return table


def reference_results():
    table = make_table("sequential", capacity=len(ROUTES) + 8)
    table.load(ROUTES)
    return [result.entry if result is not None else None
            for result in (table.lookup(address) for address in ADDRESSES)]


REFERENCE = reference_results()


def probe(table, address):
    """(entry|None, steps) from the Optional[LookupResult] contract."""
    result = table.lookup(address)
    if result is None:
        return None, 1
    return result.entry, result.steps


# -- construction -------------------------------------------------------------------


def test_rejects_unknown_protection():
    with pytest.raises(RoutingTableError):
        ProtectedRoutingTable(make_table("sequential", capacity=4),
                              protection="hamming")


def test_rejects_nesting():
    inner = ProtectedRoutingTable(make_table("sequential", capacity=4))
    with pytest.raises(RoutingTableError):
        ProtectedRoutingTable(inner)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_clean_protected_table_matches_reference(kind):
    for protection in PROTECTION_MODES:
        table = build(kind, protection)
        for address, expected in zip(ADDRESSES, REFERENCE):
            entry, _ = probe(table, address)
            if expected is None:
                assert entry is None
            else:
                assert entry is not None
                assert entry.next_hop == expected.next_hop
        assert table.detected_corruptions == 0
        assert table.degraded_lookups == 0


# -- the never-silent property ------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@pytest.mark.parametrize("protection", ("parity", "checksum"))
def test_single_flip_is_detected_or_masked_never_silent(kind, protection):
    """Property: a single-bit state fault on a protected table is either
    invisible in every answer (masked) or detected — live at lookup
    time or by the scrub — but never silently wrong."""
    for seed in range(12):
        table = build(kind, protection)
        injector = MemoryFaultInjector(seed=seed)
        injector.inject(table, flips=1)
        diverged = 0
        for address, expected in zip(ADDRESSES, REFERENCE):
            entry, _ = probe(table, address)  # must never raise
            want = None if expected is None else expected.next_hop
            got = None if entry is None else entry.next_hop
            if got != want:
                diverged += 1
        caught = table.detected_corruptions > 0 \
            or len(table.verify_integrity()) > 0
        assert caught or diverged == 0, (
            f"silent corruption: kind={kind} protection={protection} "
            f"seed={seed} diverged={diverged}")


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_scrub_detects_every_injected_flip(kind):
    """The scrub compares checkpointed words against the live image, so
    coverage of injected state flips is complete by construction."""
    for seed in range(8):
        table = build(kind, "checksum")
        injector = MemoryFaultInjector(seed=seed)
        injector.inject(table, flips=1)
        if injector.faults_injected:
            assert table.verify_integrity(), (
                f"scrub missed a flip: kind={kind} seed={seed}")


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_degraded_lookups_never_raise(kind):
    """Hammer one protected table with many flips: every lookup must
    still answer (possibly from the journal), never raise."""
    table = build(kind, "checksum")
    injector = MemoryFaultInjector(seed=99)
    injector.inject(table, flips=16)
    for address in ADDRESSES:
        entry, steps = probe(table, address)
        assert steps >= 1
    # degraded service still agrees with the reference FIB
    for address, expected in zip(ADDRESSES, REFERENCE):
        entry, _ = probe(table, address)
        if table.detected_corruptions == 0:
            break
        if expected is not None and entry is not None:
            pass  # values may legally come from the journal


def test_unprotected_mode_is_a_pure_pass_through():
    table = build("sequential", "none")
    assert table.verify_integrity() == []
    entry, steps = probe(table, ADDRESSES[0])
    assert table.degraded_lookups == 0


# -- quarantine and rebuild ---------------------------------------------------------


def test_corrupted_hit_is_quarantined_and_served_from_journal():
    table = build("sequential", "checksum")
    # find an address that hits, then corrupt its serving entry
    target = None
    for address in ADDRESSES:
        entry, _ = probe(table, address)
        if entry is not None:
            target = address
            break
    assert target is not None
    # corrupt every entry so the serving one is definitely damaged
    inner_count = len(table.memory_records("entry"))
    for index in range(inner_count):
        table.corrupt_memory("entry", index, 5)
    entry, _ = probe(table, target)
    assert table.detected_corruptions > 0
    assert table.degraded_lookups > 0
    # the journal still serves the correct route
    reference = dict(zip(ADDRESSES, REFERENCE))
    expected = reference[target]
    assert (entry is None) == (expected is None)
    if entry is not None:
        assert entry.next_hop == expected.next_hop


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_rebuild_restores_full_service(kind):
    table = build(kind, "checksum")
    MemoryFaultInjector(seed=7).inject(table, flips=8)
    table.rebuild()
    assert table.rebuilds == 1
    assert table.verify_integrity() == []
    before_degraded = table.degraded_lookups
    for address, expected in zip(ADDRESSES, REFERENCE):
        entry, _ = probe(table, address)
        want = None if expected is None else expected.next_hop
        got = None if entry is None else entry.next_hop
        assert got == want
    assert table.degraded_lookups == before_degraded


# -- per-route words track the journal ----------------------------------------------

#: routes the invariant test draws from: each prefix twice, with two images
POOL = synthesize_fib(16, seed=8)
VARIANTS = POOL + [replace(route, route_tag=route.route_tag ^ 1)
                   for route in POOL]

#: kind -> (memory site holding whole route records, bit offset of the
#: packed route inside one record)
PAYLOAD = {
    "sequential": ("entry", 0),
    "balanced-tree": ("tree-node", 0),
    "cam": ("cam-row", 256),
    "multibit-trie": ("trie-slot", 16),
    "bloom": ("bloom-bucket", 0),
}

#: first bit of the next-hop field in a packed route: flipping it damages
#: the record but keeps its prefix, so a hit on it is quarantinable
NEXT_HOP_BIT = 17 * 8

OPERATIONS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, len(VARIANTS) - 1)),
    st.tuples(st.just("remove"), st.integers(0, len(POOL) - 1)),
    st.tuples(st.just("load"),
              st.lists(st.integers(0, len(VARIANTS) - 1), max_size=6)),
    st.tuples(st.just("corrupt"), st.integers(0, len(POOL) - 1),
              st.integers(0, 127)),
    st.tuples(st.just("rebuild")),
)


def corrupt_and_look_up(table, kind, pick, bit):
    """Damage the next hop of one journalled route's record, then look up
    that route's network address; returns whether the lookup was
    expected to quarantine it."""
    if not table._journal:
        return False
    target = list(table._journal.values())[pick % len(table._journal)]
    site, offset = PAYLOAD[kind]
    start = offset // 8
    for index, record in enumerate(table.memory_records(site)):
        stored = unpack_entry_raw(record[start:start + ENTRY_BYTES])
        if stored.prefix == target.prefix:
            break
    else:
        return False  # quarantined by an earlier step
    table.corrupt_memory(site, index, offset + NEXT_HOP_BIT + bit)
    address = target.prefix.network
    table.lookup(address)
    return table._journal_lookup(address) is target


def assert_route_words_track_journal(table):
    assert table._route_words == {
        prefix: table._word(_pack_fields(entry))
        for prefix, entry in table._journal.items()}


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_wrapping_a_loaded_table_words_its_routes(kind):
    inner = make_table(kind, capacity=len(POOL))
    inner.load(POOL[:8])
    table = ProtectedRoutingTable(inner, protection="parity")
    assert len(table._route_words) == 8
    assert_route_words_track_journal(table)


@pytest.mark.parametrize("protection", ("parity", "checksum"))
@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
@settings(max_examples=20, deadline=None)
@given(operations=st.lists(OPERATIONS, max_size=12))
def test_route_words_track_the_journal(kind, protection, operations):
    table = ProtectedRoutingTable(
        make_table(kind, capacity=len(POOL) + 4), protection=protection)
    table.load(POOL[:8])
    table.checkpoint()
    assert_route_words_track_journal(table)
    for operation in operations:
        name = operation[0]
        if name == "insert":
            table.insert(VARIANTS[operation[1]])
        elif name == "remove":
            prefix = POOL[operation[1]].prefix
            try:
                table.remove(prefix)
            except RoutingTableError:
                # absent, or quarantined out of the structure only
                pass
        elif name == "load":
            table.load([VARIANTS[index] for index in operation[1]])
        elif name == "corrupt":
            quarantined = table.quarantined_routes
            if corrupt_and_look_up(table, kind, *operation[1:]):
                assert table.quarantined_routes == quarantined + 1
        else:
            table.rebuild()
        assert_route_words_track_journal(table)
        table.checkpoint()
        assert_route_words_track_journal(table)


# -- the scrub compares bytes, then words -------------------------------------------


@pytest.mark.parametrize("protection, flagged",
                         [("parity", 0), ("checksum", 1)])
def test_parity_misses_two_flips_in_one_record(protection, flagged):
    """Even-weight damage within one record keeps its parity: the scrub
    sees the bytes change, but only the checksum word changes with them."""
    table = build("sequential", protection)
    before = table.memory_records("entry")
    for bit in (NEXT_HOP_BIT, NEXT_HOP_BIT + 1):
        table.corrupt_memory("entry", 0, bit)
    after = table.memory_records("entry")
    assert after[0] != before[0] and after[1:] == before[1:]
    events = table.verify_integrity()
    assert [(event.site, event.index) for event in events] \
        == [("entry", 0)] * flagged


# -- replicas: a fault trial's copy of the clean table ------------------------------


def table_state(table):
    """Everything a trial could change: records, journal, route words,
    scrub baseline and the protection counters."""
    return ({site: table.memory_records(site)
             for site in table.memory_sites()},
            dict(table._journal), dict(table._route_words),
            dict(table._site_records), table._scrub_armed,
            table.protection, table.detected_corruptions,
            table.degraded_lookups, table.quarantined_routes,
            table.rebuilds)


@pytest.mark.parametrize("protection", PROTECTION_MODES)
@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_replica_equals_a_fresh_build(kind, protection):
    clean = build(kind, protection)
    for address in ADDRESSES:  # the golden run answers from the clean table
        clean.lookup(address)
    fresh = build(kind, protection)
    twin = clean.replica()
    assert table_state(twin) == table_state(fresh)
    assert twin.stats == fresh.stats
    assert twin.inner is not clean.inner
    assert twin.stats is twin.inner.stats
    assert twin.stats is not clean.stats


@pytest.mark.parametrize("protection", PROTECTION_MODES)
@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_replica_is_the_checkpoint_not_the_struck_table(kind, protection):
    """A strike on the clean table after its checkpoint does not reach
    its replicas: each is the table as it was checkpointed."""
    clean = build(kind, protection)
    MemoryFaultInjector(seed=4).inject(clean, flips=4)
    fresh = build(kind, protection)
    assert table_state(clean) != table_state(fresh)
    twin = clean.replica()
    assert table_state(twin) == table_state(fresh)
    assert twin.stats == fresh.stats


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_struck_replica_spares_its_sibling(kind):
    """Two replicas of one table share no structure: striking one
    leaves the other, and the clean table, equal to a fresh build."""
    clean = build(kind, "checksum")
    fresh = build(kind, "checksum")
    struck, sibling = clean.replica(), clean.replica()
    MemoryFaultInjector(seed=4).inject(struck, flips=4)
    assert table_state(struck) != table_state(fresh)
    for table in (sibling, clean):
        assert table_state(table) == table_state(fresh)
        assert table.stats == fresh.stats


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_struck_replica_is_scrubbed_and_spares_the_clean_table(kind):
    clean = build(kind, "checksum")
    state = table_state(clean)
    twin = clean.replica()
    assert corrupt_and_look_up(twin, kind, 0, 0)
    assert twin.quarantined_routes == 1
    MemoryFaultInjector(seed=4).inject(twin, flips=4)
    for address in ADDRESSES:
        twin.lookup(address)
    assert twin.verify_integrity()
    assert table_state(clean) == state
    assert clean.verify_integrity() == []


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_writes_to_a_replica_spare_the_clean_table(kind):
    clean = build(kind, "parity")
    state = table_state(clean)
    twin = clean.replica()
    twin.remove(ROUTES[0].prefix)
    twin.insert(replace(ROUTES[1], route_tag=ROUTES[1].route_tag ^ 1))
    twin.insert(POOL[0])
    twin.checkpoint()
    assert_route_words_track_journal(twin)
    assert table_state(clean) == state


def test_replica_of_an_unarmed_table_is_refused():
    table = build("cam", "parity")
    table.insert(POOL[0])
    with pytest.raises(RoutingTableError):
        table.replica()
