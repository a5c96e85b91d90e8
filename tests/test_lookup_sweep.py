"""The scaling lookup sweep: determinism, resume, parallel, CLI, schema.

The byte-identity contract every campaign in this repo honours: a sweep
that runs sequentially, a sweep that fans out over a process pool, and a
sweep that is killed and resumed must render and serialise identically.
"""

import json

import pytest

from repro.dse.lookup_sweep import (
    LookupCell,
    LookupSweepRunner,
    estimate_from_record,
    measure_cell,
    plan_cells,
)
from repro.errors import CampaignError
from repro.obs import MetricsRegistry, set_registry
from repro.routing import make_table
from repro.workload.fib import synthesize_fib, zipf_addresses

KINDS = ("sequential", "balanced-tree", "cam", "multibit-trie", "bloom")
SIZES = (100, 300)
LOOKUPS = 200


def run_sweep(journal=None, resume=False, jobs=1, kinds=KINDS):
    runner = LookupSweepRunner(
        kinds=kinds, prefix_counts=SIZES, lookups=LOOKUPS, seed=7,
        jobs=jobs, journal_path=journal, resume=resume)
    return runner.run()


class TestPlan:
    def test_kind_major_deterministic_order(self):
        plan = plan_cells(KINDS, SIZES, LOOKUPS, seed=7)
        assert len(plan) == len(KINDS) * len(SIZES)
        assert [c.kind for c in plan[:2]] == ["sequential", "sequential"]
        assert [c.prefix_count for c in plan[:2]] == [100, 300]
        assert plan == plan_cells(KINDS, SIZES, LOOKUPS, seed=7)

    def test_same_size_cells_share_workload_identity(self):
        """All kinds at one size must measure the same FIB: the key
        differs only in the kind field."""
        plan = plan_cells(KINDS, (100,), LOOKUPS, seed=7)
        identities = {json.dumps({**json.loads(c.key), "kind": None})
                      for c in plan}
        assert len(identities) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(CampaignError):
            plan_cells(("no-such-kind",), SIZES, LOOKUPS, 7)
        with pytest.raises(CampaignError):
            plan_cells(KINDS, (0,), LOOKUPS, 7)
        with pytest.raises(CampaignError):
            plan_cells(KINDS, SIZES, 0, 7)
        with pytest.raises(CampaignError):
            LookupSweepRunner(jobs=0)
        with pytest.raises(CampaignError):
            LookupSweepRunner(resume=True)  # no journal


class TestMeasurement:
    def test_record_is_deterministic_and_json_safe(self):
        cell = LookupCell("multibit-trie", 200, LOOKUPS, seed=7)
        record = measure_cell(cell)
        assert record == measure_cell(cell)
        assert record["status"] == "ok"
        assert record["route_count"] == 200
        json.dumps(record)  # journal-serializable

    def test_estimate_recomputed_bit_identically(self):
        record = measure_cell(LookupCell("bloom", 200, LOOKUPS, seed=7))
        a = estimate_from_record(record)
        b = estimate_from_record(json.loads(json.dumps(record)))
        assert a == b
        assert a.feasible
        assert a.required_clock_hz > 0

    def test_hardware_kinds_scale_flat(self):
        """The sweep's headline: trie/Bloom steps stay flat while the
        sequential scan grows linearly."""
        def steps(kind, count):
            return measure_cell(
                LookupCell(kind, count, LOOKUPS, seed=7)
            )["mean_lookup_steps"]

        assert steps("sequential", 2_000) > 10 * steps("sequential", 100)
        assert steps("multibit-trie", 2_000) < \
            steps("multibit-trie", 100) + 2
        assert steps("bloom", 2_000) < steps("bloom", 100) + 2


class TestByteIdentity:
    def test_parallel_matches_sequential(self, tmp_path):
        sequential = run_sweep(journal=str(tmp_path / "a.jsonl"))
        parallel = run_sweep(journal=str(tmp_path / "b.jsonl"), jobs=2)
        assert sequential.render() == parallel.render()
        assert json.dumps(sequential.to_dict(), sort_keys=True) == \
            json.dumps(parallel.to_dict(), sort_keys=True)

    def test_resume_after_kill_is_byte_identical(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        full = run_sweep(journal=journal)
        # Simulate a crash: keep the first three records plus a torn
        # half-written tail line, as a killed process would leave.
        with open(journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:3])
            handle.write(lines[3][: len(lines[3]) // 2])
        resumed = run_sweep(journal=journal, resume=True)
        assert resumed.resumed == 3
        assert resumed.discarded_records == 1
        assert resumed.render() == full.render()
        assert json.dumps(resumed.to_dict(), sort_keys=True) == \
            json.dumps(full.to_dict(), sort_keys=True)
        # the compacted journal replays cleanly a second time
        again = run_sweep(journal=journal, resume=True)
        assert again.resumed == len(KINDS) * len(SIZES)
        assert again.render() == full.render()

    def test_existing_journal_without_resume_refused(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        run_sweep(journal=journal, kinds=("bloom",))
        with pytest.raises(CampaignError):
            run_sweep(journal=journal, kinds=("bloom",))


class TestResults:
    def test_render_and_dict_shape(self):
        result = run_sweep(kinds=("cam", "bloom"))
        text = result.render()
        assert "Req. clock" in text
        assert "cam" in text and "bloom" in text
        document = result.to_dict()
        assert [c["kind"] for c in document["cells"]] == \
            ["cam", "cam", "bloom", "bloom"]
        for cell in document["cells"]:
            assert cell["status"] == "ok"
            assert cell["estimate"]["required_clock_hz"] > 0
        # resume bookkeeping must NOT leak into the document
        assert "resumed" not in document

    def test_api_facade(self, tmp_path):
        from repro import api

        result = api.lookup_sweep(kinds=("multibit-trie",),
                                  prefix_counts=(100,), lookups=50)
        assert len(result.records) == 1
        assert result.records[0]["status"] == "ok"


def routing_counters(action):
    """The ``routing_*`` counters *action* publishes into a fresh
    registry."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    try:
        action()
    finally:
        set_registry(previous)
    return {name: entry for name, entry in
            fresh.snapshot()["counters"].items()
            if name.startswith("routing_")}


class TestMetrics:
    def test_sweep_reports_the_tables_own_help_text(self):
        """The sweep publishes routing counters through the tables'
        declarations, so their help text is the same whichever of the
        two declares them first in a process."""
        def use_table():
            routes = synthesize_fib(100, seed=7)
            table = make_table("bloom", capacity=len(routes))
            table.load(routes)
            table.lookup_batch(zipf_addresses(routes, 20, seed=8))

        tables = routing_counters(use_table)
        swept = routing_counters(lambda: run_sweep(kinds=("bloom",)))
        assert set(swept) == set(tables) == {
            "routing_lookups_total", "routing_lookup_steps_total",
            "routing_updates_total", "routing_update_steps_total"}
        for name, entry in swept.items():
            assert entry["help"] == tables[name]["help"], name
            assert entry["label_names"] == tables[name]["label_names"]
            assert entry["values"], name


class TestCli:
    def test_cli_output_schema_valid(self, tmp_path, metrics_checker):
        from repro.cli import main

        output = tmp_path / "sweep.json"
        code = main(["lookup-sweep", "--kind", "bloom", "--kind",
                     "multibit-trie", "--prefixes", "100", "300",
                     "--lookups", "200", "--output", str(output)])
        assert code == 0
        document = json.loads(output.read_text())
        assert len(document["cells"]) == 4
        assert "metrics" in document

        with open(metrics_checker.SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert metrics_checker.check(str(output), schema) == 0

    def test_cli_table1_extended_kinds_render(self, capsys):
        """`table1 --kinds all --prefixes N` runs the full simulation
        for all five kinds against a synthesized FIB."""
        from repro.cli import main

        code = main(["table1", "--kinds", "all", "--prefixes", "40",
                     "--packets", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "multibit-trie" in out
        assert "bloom" in out
        assert "shape checks passed" in out
