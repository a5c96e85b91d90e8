"""Routing-table implementations: semantics, invariants, cost shapes."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs import MetricsRegistry, set_registry
from repro.routing import (
    BalancedTreeRoutingTable,
    BloomRoutingTable,
    CamRoutingTable,
    MultibitTrieRoutingTable,
    SequentialRoutingTable,
    TABLE_KINDS,
    make_table,
)
from repro.routing.balanced_tree import _key
from repro.routing.cam import CamPhysicalModel
from repro.routing.entry import RouteEntry
from repro.routing.multibit_trie import DEPTH
from repro.workload.fib import synthesize_fib, zipf_addresses

ALL_TABLES = [SequentialRoutingTable, BalancedTreeRoutingTable,
              CamRoutingTable, MultibitTrieRoutingTable,
              BloomRoutingTable]


def entry(prefix_text, interface=0, metric=1):
    prefix = Ipv6Prefix.parse(prefix_text)
    return RouteEntry(prefix=prefix, next_hop=Ipv6Address(interface + 1),
                      interface=interface, metric=metric)


def addr(text):
    return Ipv6Address.parse(text)


@pytest.mark.parametrize("table_cls", ALL_TABLES)
class TestCommonSemantics:
    def test_longest_prefix_wins(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001::/16", 1))
        table.insert(entry("2001:db8::/32", 2))
        result = table.lookup(addr("2001:db8::1"))
        assert result.interface == 2
        assert table.lookup(addr("2001:1::1")).interface == 1
        assert table.lookup(addr("9::1")).interface == 0

    def test_miss_without_default(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32"))
        assert table.lookup(addr("3fff::1")) is None

    def test_replace_same_prefix(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8::/32", 3))
        assert len(table) == 1
        assert table.lookup(addr("2001:db8::5")).interface == 3

    def test_remove(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 2))
        table.remove(Ipv6Prefix.parse("2001:db8::/32"))
        assert table.lookup(addr("2001:db8::1")).interface == 0

    def test_remove_missing_raises(self, table_cls):
        table = table_cls()
        with pytest.raises(RoutingTableError):
            table.remove(Ipv6Prefix.parse("2001:db8::/32"))

    def test_capacity_enforced(self, table_cls):
        table = table_cls(capacity=2)
        table.insert(entry("2001:a::/32"))
        table.insert(entry("2001:b::/32"))
        with pytest.raises(RoutingTableError):
            table.insert(entry("2001:c::/32"))
        # replacement of an existing prefix is always allowed
        table.insert(entry("2001:a::/32", 3))

    def test_exact_get(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 2))
        assert table.get(Ipv6Prefix.parse("2001:db8::/32")).interface == 2
        assert table.get(Ipv6Prefix.parse("2001:db8::/48")) is None
        assert Ipv6Prefix.parse("2001:db8::/32") in table

    def test_iteration_and_clear(self, table_cls):
        table = table_cls()
        for i, text in enumerate(("::/0", "2001::/16", "2001:db8::/32")):
            table.insert(entry(text, i))
        assert {e.interface for e in table} == {0, 1, 2}
        table.clear()
        assert len(table) == 0

    def test_stats_recorded(self, table_cls):
        table = table_cls()
        table.insert(entry("::/0"))
        table.lookup(addr("2001::1"))
        table.lookup(addr("2002::1"))
        assert table.stats.lookups == 2
        assert table.stats.hits == 2
        assert table.stats.inserts == 1


def test_every_table_kind_is_built_from_capacity_alone():
    """``make_table`` passes only the capacity, so no table kind takes a
    geometry setting that only a direct constructor call could vary."""
    assert {kind: list(inspect.signature(cls).parameters)
            for kind, cls in TABLE_KINDS.items()} == \
        {kind: ["capacity"] for kind in TABLE_KINDS}


prefix_strategy = st.tuples(
    st.integers(min_value=0, max_value=(1 << 128) - 1),
    st.sampled_from([0, 8, 16, 24, 32, 48, 64, 96, 128]),
).map(lambda t: Ipv6Prefix.of(Ipv6Address(t[0]), t[1]))


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40,
                    unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=30))
    def test_all_implementations_agree(self, prefixes, probe_values):
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        for value in probe_values:
            probe = Ipv6Address(value)
            results = [t.lookup(probe) for t in tables]
            entries = [r.entry if r else None for r in results]
            assert all(e == entries[0] for e in entries[1:])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(prefix_strategy, min_size=4, max_size=30, unique=True),
           st.data())
    def test_agreement_survives_removals(self, prefixes, data):
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        victims = data.draw(st.lists(st.sampled_from(prefixes), max_size=5,
                                     unique=True))
        for victim in victims:
            for table in tables:
                table.remove(victim)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()
        for prefix in prefixes:
            probe = Ipv6Address(prefix.network.value | 1)
            entries = [r.entry if (r := t.lookup(probe)) else None
                       for t in tables]
            assert all(e == entries[0] for e in entries[1:])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=30, unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=20),
           st.data())
    def test_same_workload_same_counts(self, prefixes, probe_values, data):
        """The cross-implementation accounting contract: one workload
        produces identical hit/miss/insert/removal *counts* on every
        implementation (steps legitimately differ — that is the whole
        point of the comparison)."""
        tables = [make_table(kind, capacity=64) for kind in TABLE_KINDS]
        for i, prefix in enumerate(prefixes):
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                           interface=i % 4)
            for table in tables:
                table.insert(e)
        replaced = data.draw(st.lists(st.sampled_from(prefixes),
                                      max_size=5))
        for prefix in replaced:
            e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(999),
                           interface=3)
            for table in tables:
                table.insert(e)
        victims = data.draw(st.lists(st.sampled_from(prefixes),
                                     max_size=5, unique=True))
        for victim in victims:
            for table in tables:
                table.remove(victim)
        for value in probe_values:
            for table in tables:
                table.lookup(Ipv6Address(value))
        reference = tables[0].stats
        for table in tables[1:]:
            stats = table.stats
            assert stats.lookups == reference.lookups
            assert stats.hits == reference.hits
            assert stats.misses == reference.misses
            assert stats.inserts == reference.inserts
            assert stats.removals == reference.removals

    @settings(max_examples=20, deadline=None)
    @given(st.lists(prefix_strategy, min_size=1, max_size=40, unique=True),
           st.lists(st.integers(min_value=0, max_value=(1 << 128) - 1),
                    min_size=1, max_size=20))
    def test_lookup_batch_matches_sequential_lookups(self, prefixes,
                                                     probe_values):
        """`lookup_batch` must report the same results, the same stats,
        the same per-address steps and the same metrics as per-address
        `lookup` — for every implementation, including the sequential
        table's hashed batch fast path."""
        probes = [Ipv6Address(value) for value in probe_values]
        for kind in TABLE_KINDS:
            single, batched = (make_table(kind, capacity=64)
                               for _ in range(2))
            for i, prefix in enumerate(prefixes):
                e = RouteEntry(prefix=prefix, next_hop=Ipv6Address(i + 1),
                               interface=i % 4)
                single.insert(e)
                batched.insert(e)
            one_by_one, in_batch = (MetricsRegistry(enabled=True)
                                    for _ in range(2))
            previous = set_registry(one_by_one)
            try:
                expected = [single.lookup(address) for address in probes]
                set_registry(in_batch)
                got = batched.lookup_batch(probes)
            finally:
                set_registry(previous)
            assert got == expected
            assert batched.stats == single.stats
            assert in_batch.snapshot() == one_by_one.snapshot()
            # one series per outcome that occurred, none for the other
            lookups = in_batch.snapshot()["counters"]["routing_lookups_total"]
            assert {sample["labels"]["outcome"]: sample["value"]
                    for sample in lookups["values"]} == {
                outcome: count for outcome, count in (
                    ("hit", single.stats.hits), ("miss", single.stats.misses))
                if count}


class TestBalancedTree:
    def test_avl_invariants_random_ops(self):
        rng = random.Random(42)
        table = BalancedTreeRoutingTable(capacity=256)
        live = []
        for step in range(400):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                table.remove(victim)
            else:
                prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                       rng.choice([8, 16, 32, 64, 128]))
                if prefix not in table:
                    table.insert(RouteEntry(prefix=prefix,
                                            next_hop=Ipv6Address(1),
                                            interface=0))
                    live.append(prefix)
            table.check_invariants()

    def test_logarithmic_height(self):
        table = BalancedTreeRoutingTable(capacity=1024)
        rng = random.Random(7)
        for i in range(500):
            prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)), 64)
            if prefix not in table:
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1),
                                        interface=0))
        # AVL guarantees height <= 1.44 log2(n+2)
        import math
        assert table.tree_height() <= 1.44 * math.log2(len(table) + 2) + 1

    def test_nested_prefix_chain(self):
        table = BalancedTreeRoutingTable()
        for length, iface in ((0, 0), (16, 1), (32, 2), (48, 3), (64, 4)):
            table.insert(RouteEntry(
                prefix=Ipv6Prefix.of(addr("2001:db8:1:2::"), length),
                next_hop=Ipv6Address(1), interface=iface))
        assert table.lookup(addr("2001:db8:1:2::9")).interface == 4
        assert table.lookup(addr("2001:db8:1:3::9")).interface == 3
        assert table.lookup(addr("2001:db8:2::9")).interface == 2
        assert table.lookup(addr("2001:1::9")).interface == 1
        assert table.lookup(addr("9999::9")).interface == 0

    def test_stored_keys_follow_their_entries(self):
        """Each node stores its search key; every payload write (bulk
        build, replace, delete's payload swap, corruption of the
        network and length fields) must leave it equal to the key of
        the node's entry."""

        def assert_keys_follow(table):
            for node in table._ordered_nodes():  # noqa: SLF001
                assert node.key == _key(node.entry.prefix)

        routes = synthesize_fib(120, seed=13)
        rng = random.Random(17)
        table = BalancedTreeRoutingTable(capacity=len(routes))
        table.load(routes)
        assert_keys_follow(table)
        table.insert(RouteEntry(prefix=routes[5].prefix,
                                next_hop=Ipv6Address(9), interface=1))
        assert_keys_follow(table)
        swaps = 0
        for victim in rng.sample(routes, 60):
            node = table._nodes[victim.prefix]  # noqa: SLF001
            swaps += node.left is not None and node.right is not None
            table.remove(victim.prefix)
            assert_keys_follow(table)
        assert swaps  # some removals swapped a successor's payload in

        damaged = BalancedTreeRoutingTable(capacity=len(routes))
        damaged.load(routes)
        for _ in range(40):
            bit = rng.randrange(136)  # network 0..127, length 128..135
            damaged.corrupt_memory("tree-node",
                                   rng.randrange(len(routes)), bit)
            assert_keys_follow(damaged)


class TestCostShapes:
    def test_sequential_linear_tree_log_cam_constant(self):
        rng = random.Random(3)
        kinds = {}
        for kind in TABLE_KINDS:
            table = make_table(kind, capacity=128)
            for i in range(100):
                while True:
                    prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                           64)
                    if prefix not in table:
                        break
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1), interface=0))
            for _ in range(200):
                table.lookup(Ipv6Address(rng.getrandbits(128)))
            kinds[kind] = table.stats.mean_lookup_steps
        assert kinds["cam"] == 1.0
        assert kinds["balanced-tree"] < 20
        assert kinds["sequential"] > 50


class TestCam:
    def test_priority_order_by_length(self):
        table = CamRoutingTable()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001::/16", 2))
        lengths = [line.entry.prefix.length for line in table._lines]
        assert lengths == sorted(lengths, reverse=True)

    def test_physical_model_power_scales(self):
        model = CamPhysicalModel()
        assert model.power_at(133.0) == pytest.approx(1.75)
        assert model.power_at(66.5) == pytest.approx(0.875)
        assert model.power_at(266.0) == pytest.approx(1.75)  # capped

    def test_search_cycles_ceiling(self):
        model = CamPhysicalModel()
        assert model.search_cycles(25e6) == 1       # 40 ns at 25 MHz
        assert model.search_cycles(100e6) == 4
        assert model.search_cycles(1e9) == 40

    def test_bad_clock_rejected(self):
        model = CamPhysicalModel()
        with pytest.raises(RoutingTableError):
            model.power_at(0)
        with pytest.raises(RoutingTableError):
            model.search_cycles(-1)


@pytest.mark.parametrize("table_cls", ALL_TABLES)
class TestAccountingRegressions:
    """The routing-layer accounting bugfix sweep, pinned by regression.

    * ``clear()`` used to call ``_remove`` directly, bypassing
      ``stats.record_update`` and the ``routing_updates_total`` counter;
    * ``load()`` used to run the full per-insert path (a per-entry
      ``get`` probe plus capacity check — O(n²) on the sequential
      table);
    * the tree's replace path used to report ``_height(self._root)``
      instead of the descent actually performed.
    """

    def test_clear_records_every_removal(self, table_cls):
        registry = MetricsRegistry(enabled=True)
        previous = set_registry(registry)
        try:
            table = table_cls()
            for text in ("::/0", "2001::/16", "2001:db8::/32"):
                table.insert(entry(text))
            table.clear()
            assert len(table) == 0
            assert table.stats.removals == 3
            assert table.stats.inserts == 3
            counters = registry.snapshot()["counters"]
            values = {tuple(sorted(v["labels"].items())): v["value"]
                      for v in counters["routing_updates_total"]["values"]}
            key = (("kind", table.kind), ("op", "remove"))
            assert values[key] == 3
        finally:
            set_registry(previous)

    def test_bulk_load_equivalent_to_per_insert(self, table_cls):
        routes = synthesize_fib(60, seed=5)
        bulk = table_cls(capacity=len(routes))
        bulk.load(routes)
        reference = table_cls(capacity=len(routes))
        for route in routes:
            reference.insert(route)
        assert len(bulk) == len(reference)
        assert {e.prefix: e for e in bulk} == \
            {e.prefix: e for e in reference}
        # overrides must keep the *counts* identical to the per-insert
        # path; only total_update_steps may (and should) be cheaper
        assert bulk.stats.inserts == reference.stats.inserts
        assert bulk.stats.removals == reference.stats.removals
        probes = zipf_addresses(routes, 50, seed=9)
        assert [r.entry if r else None for r in bulk.lookup_batch(probes)] \
            == [r.entry if r else None
                for r in reference.lookup_batch(probes)]

    def test_bulk_load_duplicates_collapse_to_last(self, table_cls):
        routes = [entry("2001:db8::/32", 1), entry("2001:db8::/32", 2)]
        table = table_cls(capacity=1)
        table.load(routes)  # one distinct prefix: fits capacity 1
        assert len(table) == 1
        assert table.lookup(addr("2001:db8::9")).interface == 2
        assert table.stats.inserts == 2  # both writes accounted

    def test_bulk_load_capacity_checked_up_front(self, table_cls):
        routes = synthesize_fib(20, seed=6)
        table = table_cls(capacity=10)
        with pytest.raises(RoutingTableError):
            table.load(routes)
        # no partial load: the check precedes the first write
        assert len(table) == 0
        assert table.stats.inserts == 0

    def test_bulk_load_into_populated_table(self, table_cls):
        table = table_cls(capacity=40)
        table.insert(entry("::/0", 0))
        routes = synthesize_fib(21, seed=7)[1:]  # without its default route
        table.load(routes)
        assert len(table) == 21
        assert table.lookup(addr("9::1")).interface == 0


class TestReplaceCost:
    def test_tree_replace_cost_is_descent_plus_write(self):
        # Single node: the descent visits one node, plus one write.
        table = BalancedTreeRoutingTable()
        table.insert(entry("2001:db8::/32", 1))
        before = table.stats.total_update_steps
        table.insert(entry("2001:db8::/32", 2))
        assert table.stats.total_update_steps - before == 2
        assert table.lookup(addr("2001:db8::1")).interface == 2

    def test_tree_replace_cost_depends_on_node_depth(self):
        # The regression: every replace reported the tree height.
        # Replacing the root must be cheaper than replacing a leaf.
        rng = random.Random(13)
        table = BalancedTreeRoutingTable(capacity=256)
        prefixes = []
        for _ in range(128):
            prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)), 64)
            if prefix not in table:
                table.insert(RouteEntry(prefix=prefix,
                                        next_hop=Ipv6Address(1),
                                        interface=0))
                prefixes.append(prefix)

        def replace_cost(prefix):
            before = table.stats.total_update_steps
            table.insert(RouteEntry(prefix=prefix, next_hop=Ipv6Address(2),
                                    interface=1))
            return table.stats.total_update_steps - before

        costs = {replace_cost(prefix) for prefix in prefixes}
        height = table.tree_height()
        assert len(costs) > 1          # not one flat height-derived value
        assert min(costs) == 2         # the root: one comparison + write
        assert max(costs) <= height + 1

    @pytest.mark.parametrize("table_cls", ALL_TABLES)
    def test_replace_never_counts_as_fresh_insert(self, table_cls):
        table = table_cls()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8::/32", 2))
        assert len(table) == 1
        assert table.stats.inserts == 2
        assert table.stats.removals == 0


def _loaded_tables(prefix_count, seed):
    routes = synthesize_fib(prefix_count, seed=seed)
    tables = [make_table(kind, capacity=len(routes))
              for kind in TABLE_KINDS]
    for table in tables:
        table.load(routes)
    return routes, tables


def _assert_tables_agree(routes, tables, probes):
    answers = [table.lookup_batch(probes) for table in tables]
    for per_table in zip(*answers):
        entries = [r.entry if r else None for r in per_table]
        assert all(e == entries[0] for e in entries[1:])


class TestScalingEquivalence:
    """LPM identical-semantics at FIB scale, all five implementations."""

    @pytest.mark.parametrize("prefix_count", (100, 1_000, 10_000))
    def test_agree_at_scale(self, prefix_count):
        routes, tables = _loaded_tables(prefix_count, seed=prefix_count)
        probes = zipf_addresses(routes, 300, seed=3)
        # off-table probes exercise the miss paths too
        rng = random.Random(4)
        probes += [Ipv6Address(rng.getrandbits(128)) for _ in range(50)]
        _assert_tables_agree(routes, tables, probes)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()

    @pytest.mark.parametrize("prefix_count", (1_000, 5_000))
    def test_nested_adoption_survives_bulk_load_then_removal(
            self, prefix_count):
        """Bulk load, then randomly remove a third of the routes:
        enclosing-chain adoption/release (tree), slot re-expansion and
        pruning (trie), and filter decrements (Bloom) must all keep the
        five structures in agreement."""
        routes, tables = _loaded_tables(prefix_count, seed=17)
        rng = random.Random(23)
        victims = rng.sample(routes[1:], prefix_count // 3)
        for victim in victims:
            for table in tables:
                table.remove(victim.prefix)
        for table in tables:
            assert len(table) == len(routes) - len(victims)
            if hasattr(table, "check_invariants"):
                table.check_invariants()
        gone = {victim.prefix for victim in victims}
        survivors = [r for r in routes if r.prefix not in gone]
        probes = zipf_addresses(survivors, 200, seed=29)
        probes += [Ipv6Address(rng.getrandbits(128)) for _ in range(50)]
        _assert_tables_agree(routes, tables, probes)

    @pytest.mark.slow
    @pytest.mark.parametrize("prefix_count", (100_000, 1_000_000))
    def test_agree_at_fib_scale(self, prefix_count):
        routes, tables = _loaded_tables(prefix_count, seed=41)
        probes = zipf_addresses(routes, 500, seed=43)
        _assert_tables_agree(routes, tables, probes)
        for table in tables:
            if hasattr(table, "check_invariants"):
                table.check_invariants()


class TestMultibitTrie:
    def test_search_latency_is_pipeline_depth(self):
        assert MultibitTrieRoutingTable().search_latency_cycles() == 16

    def test_non_stride_aligned_lengths(self):
        """Prefix lengths that fall inside a node's span (/29, /36, ...)
        exercise controlled prefix expansion; the trie must agree with
        the sequential reference."""
        routes = synthesize_fib(300, seed=31)
        reference = SequentialRoutingTable(capacity=len(routes))
        trie = MultibitTrieRoutingTable(capacity=len(routes))
        reference.load(routes)
        trie.load(routes)
        trie.check_invariants()
        probes = zipf_addresses(routes, 150, seed=37)
        for probe in probes:
            want = reference.lookup(probe)
            got = trie.lookup(probe)
            assert (got.entry if got else None) == \
                (want.entry if want else None)

    def test_lookup_steps_bounded_by_depth(self):
        routes = synthesize_fib(2_000, seed=47)
        trie = MultibitTrieRoutingTable(capacity=len(routes))
        trie.load(routes)
        probes = zipf_addresses(routes, 200, seed=53)
        for probe in probes:
            result = trie.lookup(probe)
            assert result.steps <= DEPTH

    def test_pruning_restores_insert_built_state(self):
        """Removal must leave exactly the structure repeated inserts
        would have built: no empty interior nodes, exact node count."""
        routes = synthesize_fib(200, seed=59)
        trie = MultibitTrieRoutingTable(capacity=len(routes))
        trie.load(routes)
        rng = random.Random(61)
        for victim in rng.sample(routes, 150):
            trie.remove(victim.prefix)
            trie.check_invariants()
        rebuilt = MultibitTrieRoutingTable(capacity=len(routes))
        for route in trie:
            rebuilt.insert(route)
        assert trie._node_count == rebuilt._node_count
        assert trie.slot_count() == rebuilt.slot_count()

    def test_memory_grows_with_occupancy(self):
        small = MultibitTrieRoutingTable(capacity=10_000)
        big = MultibitTrieRoutingTable(capacity=10_000)
        small.load(synthesize_fib(100, seed=67))
        big.load(synthesize_fib(5_000, seed=67))
        assert big.table_memory_bytes() > small.table_memory_bytes()
        assert big._node_count > small._node_count


def filter_info(table):
    """length -> (entries, filter slots, set counters) of a Bloom table."""
    return {length: (len(cls.entries), cls.slots,
                     sum(1 for c in cls.counters if c))
            for length, cls in table._classes.items()}


class TestBloom:
    def test_deterministic_across_instances(self):
        routes = synthesize_fib(500, seed=71)
        a = BloomRoutingTable(capacity=len(routes))
        b = BloomRoutingTable(capacity=len(routes))
        a.load(routes)
        for route in routes:
            b.insert(route)
        assert filter_info(a) == filter_info(b)
        probes = zipf_addresses(routes, 100, seed=73)
        for probe in probes:
            ra, rb = a.lookup(probe), b.lookup(probe)
            assert (ra.entry, ra.steps) == (rb.entry, rb.steps)

    def test_removal_decrements_filters(self):
        table = BloomRoutingTable()
        table.insert(entry("2001:db8::/32", 1))
        table.insert(entry("2001:db8:1::/48", 2))
        table.remove(Ipv6Prefix.parse("2001:db8:1::/48"))
        info = filter_info(table)
        assert 48 not in info  # empty length class dropped entirely
        assert info[32][0] == 1
        table.check_invariants()

    def test_no_false_negatives_under_churn(self):
        rng = random.Random(79)
        table = BloomRoutingTable(capacity=512)
        live = []
        for _ in range(600):
            if live and rng.random() < 0.45:
                victim = live.pop(rng.randrange(len(live)))
                table.remove(victim)
            else:
                prefix = Ipv6Prefix.of(Ipv6Address(rng.getrandbits(128)),
                                       rng.choice([16, 32, 48, 64]))
                if prefix not in table:
                    table.insert(RouteEntry(prefix=prefix,
                                            next_hop=Ipv6Address(1),
                                            interface=0))
                    live.append(prefix)
        table.check_invariants()  # stored prefixes all filter-positive

    def test_expected_steps_near_constant(self):
        """The headline property: mean lookup steps stay near the
        filter-bank probe + one hash-table access as the table grows."""
        means = {}
        for count in (200, 2_000):
            routes = synthesize_fib(count, seed=83)
            table = BloomRoutingTable(capacity=len(routes))
            table.load(routes)
            table.lookup_batch(zipf_addresses(routes, 300, seed=89))
            means[count] = table.stats.mean_lookup_steps
        assert means[200] < 4.0
        assert means[2_000] < 4.0
        assert abs(means[2_000] - means[200]) < 1.0
