"""One synthesized workload per size, shared by every table kind.

The lookup sweep builds each ``(prefix_count, seed, lookups)`` FIB and
its Zipf traffic once per process and hands the same lists to every
kind. That is only sound if loading and looking up never mutate what
they are given, so the first half of this file pins that contract for
every table kind, bare and integrity-protected; the second half pins
that the sweep really does build each workload once.
"""

import dataclasses

import pytest

from repro.dse import lookup_sweep
from repro.dse.config import ALL_TABLE_KINDS
from repro.dse.lookup_sweep import LookupCell, LookupSweepRunner, measure_cell
from repro.routing import ProtectedRoutingTable, make_table
from repro.workload.fib import synthesize_fib, zipf_addresses

ROUTES = synthesize_fib(300, seed=11)
ADDRESSES = zipf_addresses(ROUTES, 400, seed=12)

TABLES = [(kind, None) for kind in ALL_TABLE_KINDS] + [
    (kind, protection) for kind in ALL_TABLE_KINDS
    for protection in ("parity", "checksum")]


def build(kind, protection, routes):
    table = make_table(kind, capacity=len(routes))
    if protection is not None:
        table = ProtectedRoutingTable(table, protection=protection)
    table.load(routes)
    return table


@pytest.mark.parametrize("kind,protection", TABLES)
class TestLoadLeavesSharedInputsAlone:
    def test_route_list_and_entries_unchanged(self, kind, protection):
        routes = list(ROUTES)
        objects = list(routes)
        fields = [dataclasses.asdict(entry) for entry in routes]
        addresses = list(ADDRESSES)
        table = build(kind, protection, routes)
        table.lookup_batch(addresses)
        assert all(a is b for a, b in zip(routes, objects))
        assert len(routes) == len(objects)
        assert [dataclasses.asdict(entry) for entry in routes] == fields
        assert addresses == ADDRESSES

    def test_second_load_from_same_list_measures_the_same(
            self, kind, protection):
        routes = list(ROUTES)
        first = build(kind, protection, routes)
        first_results = first.lookup_batch(ADDRESSES)
        second = build(kind, protection, routes)
        assert second.lookup_batch(ADDRESSES) == first_results
        assert second.stats == first.stats


@pytest.fixture
def builds(monkeypatch):
    """Call counts of the sweep's two workload builders."""
    counts = {"synthesize_fib": 0, "zipf_addresses": 0}
    for name in counts:
        def counted(*args, _original=getattr(lookup_sweep, name),
                    _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(lookup_sweep, name, counted)
    return counts


def sweep(journal=None, resume=False):
    return LookupSweepRunner(
        kinds=ALL_TABLE_KINDS, prefix_counts=(100, 300), lookups=200,
        seed=7, journal_path=journal, resume=resume).run()


class TestBuiltOncePerSize:
    def test_sequential_sweep_builds_each_size_once(self, builds):
        result = sweep()
        assert len(result.records) == 2 * len(ALL_TABLE_KINDS)
        assert builds == {"synthesize_fib": 2, "zipf_addresses": 2}

    def test_fully_journaled_resume_builds_nothing(self, builds, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        full = sweep(journal=journal)
        builds.update(synthesize_fib=0, zipf_addresses=0)
        resumed = sweep(journal=journal, resume=True)
        assert resumed.resumed == len(full.records)
        assert resumed.records == full.records
        assert builds == {"synthesize_fib": 0, "zipf_addresses": 0}

    def test_measure_cell_without_context_matches_the_sweep(self, builds):
        records = {(r["kind"], r["prefix_count"]): r
                   for r in sweep().records}
        builds.update(synthesize_fib=0, zipf_addresses=0)
        record = measure_cell(LookupCell("cam", 300, 200, seed=7))
        assert record == records[("cam", 300)]
        assert builds == {"synthesize_fib": 1, "zipf_addresses": 1}
