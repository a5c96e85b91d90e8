"""Memory-state SDC sweep: determinism, resume, coverage, pinned SDC."""

import json
import os

import pytest

from repro import api
from repro.dse import sweep
from repro.errors import CampaignError, RoutingTableError
from repro.dse.sdc import (
    MemorySweepRunner,
    MemoryTrial,
    memory_sites_for,
    plan_memory_trials,
)
from repro.faults.seeds import derive_seed
from repro.routing import (
    PROTECTION_MODES,
    TABLE_KINDS,
    ProtectedRoutingTable,
    make_table,
    memimage,
)
from repro.routing.base import TableStatistics
from repro.verify.oracle import (
    CleanBuild,
    MemoryDifferentialOracle,
    _lookup_signature,
)
from repro.workload.fib import synthesize_fib, zipf_addresses
from tests.test_routing_counters import pinned_counters

SWEEP = dict(kinds=("sequential", "bloom"), prefixes=60, lookups=30,
             trials=2, seed=5)


@pytest.fixture(autouse=True)
def _no_metrics(monkeypatch):
    monkeypatch.setenv("REPRO_NO_METRICS", "1")


# -- planning -----------------------------------------------------------------------


def test_sites_per_kind():
    assert memory_sites_for("sequential") == ("entry",)
    assert memory_sites_for("multibit-trie") == ("trie-node", "trie-slot")
    assert memory_sites_for("bloom") == ("bloom-filter", "bloom-bucket")


def test_plan_is_identity_seeded():
    plan = plan_memory_trials(("cam",), ("none", "parity"), 2, 1, 9)
    assert len(plan) == 4  # 1 site x 2 protections x 2 trials
    for trial in plan:
        assert trial.seed == derive_seed(9, "memory", trial.kind,
                                         trial.protection, trial.site,
                                         trial.index)
    # keys are canonical JSON including the mode marker
    key = json.loads(plan[0].key)
    assert key["mode"] == "memory"
    assert key["kind"] == "cam"


def test_trial_key_is_order_stable():
    a = MemoryTrial(kind="cam", protection="none", site="cam-row",
                    index=0, seed=1, flips=1)
    b = MemoryTrial(kind="cam", protection="none", site="cam-row",
                    index=0, seed=1, flips=1)
    assert a.key == b.key


# -- determinism and resume ---------------------------------------------------------


def test_sequential_equals_parallel():
    seq = MemorySweepRunner(**SWEEP).run()
    par = MemorySweepRunner(jobs=2, **SWEEP).run()
    assert json.dumps(seq.to_dict(), sort_keys=True) == \
        json.dumps(par.to_dict(), sort_keys=True)
    assert seq.render() == par.render()


def test_spawned_workers_get_the_parents_clean_builds(monkeypatch):
    """A worker that inherits nothing unpickles the parent's builds
    from its initializer argument, and answers as a forked one does."""
    monkeypatch.setattr(sweep, "default_start_method", lambda: "spawn")
    seq = MemorySweepRunner(**SWEEP).run()
    par = MemorySweepRunner(jobs=2, **SWEEP).run()
    assert json.dumps(seq.to_dict(), sort_keys=True) == \
        json.dumps(par.to_dict(), sort_keys=True)


def test_resume_is_byte_identical(tmp_path):
    journal = str(tmp_path / "mem.jsonl")
    full = MemorySweepRunner(journal_path=journal, **SWEEP).run()
    # simulate a kill: truncate the journal to its first 4 records
    lines = open(journal).read().splitlines(True)
    partial = str(tmp_path / "partial.jsonl")
    open(partial, "w").write("".join(lines[:4]))
    resumed = MemorySweepRunner(journal_path=partial, resume=True,
                                **SWEEP).run()
    assert resumed.resumed == 4
    assert json.dumps(full.to_dict(), sort_keys=True) == \
        json.dumps(resumed.to_dict(), sort_keys=True)
    assert open(journal).read() == open(partial).read()


def test_existing_journal_without_resume_is_refused(tmp_path):
    journal = str(tmp_path / "mem.jsonl")
    MemorySweepRunner(journal_path=journal, **SWEEP).run()
    with pytest.raises(CampaignError, match="already exists"):
        MemorySweepRunner(journal_path=journal, **SWEEP).run()


def test_resume_without_journal_is_refused():
    with pytest.raises(CampaignError, match="without a journal"):
        MemorySweepRunner(resume=True, **SWEEP)


def test_unknown_kind_and_protection_are_refused():
    with pytest.raises(CampaignError, match="unknown table kinds"):
        MemorySweepRunner(kinds=("sequential", "octopus"))
    with pytest.raises(CampaignError, match="unknown protection"):
        MemorySweepRunner(protections=("parity", "voodoo"))


# -- classification quality ---------------------------------------------------------


def test_protected_cells_meet_detection_coverage_floor():
    """Acceptance: >= 90% of non-masked injected state flips on a
    protected table are detected in the smoke configuration."""
    result = MemorySweepRunner(prefixes=80, lookups=40, trials=2, seed=7).run()
    for row in result.rows:
        if row["protection"] == "none":
            continue
        coverage = row["detection_coverage"]
        assert coverage is None or coverage >= 0.9, (
            f"{row['kind']}/{row['protection']}: coverage {coverage}")


def test_protection_cost_rows_are_priced():
    result = MemorySweepRunner(**SWEEP).run()
    for row in result.rows:
        cost = row["protection_cost"]
        assert cost["protection"] == row["protection"]
        if row["protection"] == "none":
            assert cost["overhead_bytes"] == 0
            assert cost["area_delta_mm2"] == 0.0
        else:
            assert cost["overhead_bytes"] > 0
            assert cost["area_delta_mm2"] > 0.0


def test_pinned_cam_sdc_caught_only_differentially():
    """A pinned table-state flip that silently rewrites one answer:
    invisible to every intrinsic check (no crash, no exception, table
    still answers) and caught only by the differential signature —
    then caught *live or by scrub* once protection is on."""
    routes = synthesize_fib(80, seed=2026)
    addresses = zipf_addresses(routes, 40, seed=77)
    seed = derive_seed(7, "memory", "cam", "none", "cam-row", 0)

    naked = MemoryDifferentialOracle("cam", "none", routes, addresses)
    outcome = naked.classify(seed=seed, site="cam-row", flips=1)
    assert outcome.outcome == "sdc"
    assert "silent divergence" in outcome.detail

    shielded = MemoryDifferentialOracle("cam", "checksum", routes,
                                        addresses)
    outcome = shielded.classify(seed=seed, site="cam-row", flips=1)
    assert outcome.outcome == "detected"


#: a small cell whose trials end early: by an overrun, or by a crash
SMALL_ROUTES = synthesize_fib(40, seed=2026)
SMALL_ADDRESSES = zipf_addresses(SMALL_ROUTES, 10, seed=77)


class TinyBudget(MemoryDifferentialOracle):
    step_budget = 69  # the steps of the first three sequential lookups


def test_lookup_budget_overrun_is_a_hang():
    """A trial whose lookups outrun the step budget is classified
    ``hang`` at the first lookup that takes the run past the budget;
    reaching the budget exactly is not an overrun."""
    outcome = TinyBudget("sequential", "none", SMALL_ROUTES,
                         SMALL_ADDRESSES).classify(
        seed=3, site="entry", flips=1)
    assert outcome.outcome == "hang"
    assert outcome.detail == \
        "lookup-step budget of 69 exhausted after 4 lookups"
    assert outcome.cycles == 100
    assert (outcome.faults_injected, outcome.faults_by_site) == \
        (1, {"entry": 1})


def struck_replicas(monkeypatch):
    """The replicas ``classify`` strikes, in the order it makes them."""
    made = []
    replica = ProtectedRoutingTable.replica

    def recording_replica(self):
        made.append(replica(self))
        return made[-1]

    monkeypatch.setattr(ProtectedRoutingTable, "replica", recording_replica)
    return made


def classified_counters(oracle, **trial):
    """The outcome of one trial and the lookup counters it and its
    cell's golden run publish."""
    outcomes = []
    counters = pinned_counters(
        lambda: outcomes.append(oracle.classify(**trial)),
        names=("routing_lookups_total", "routing_lookup_steps_total"))
    return outcomes[0], counters


def test_overrun_trial_accounts_each_lookup_it_made(monkeypatch):
    """A hang trial accounts every lookup up to and including the one
    that took it past the budget: 4 lookups and 100 steps, on top of
    the golden run's 10 lookups and 198 steps."""
    replicas = struck_replicas(monkeypatch)
    outcome, counters = classified_counters(
        TinyBudget("sequential", "none", SMALL_ROUTES, SMALL_ADDRESSES),
        seed=3, site="entry", flips=1)
    assert outcome.outcome == "hang"
    assert counters == {
        ("routing_lookups_total", "kind=sequential,outcome=hit"): 14,
        ("routing_lookup_steps_total", "kind=sequential"): 298}
    assert replicas[-1].stats == TableStatistics(
        lookups=4, hits=4, total_lookup_steps=100,
        inserts=40, total_update_steps=40)


def test_crashed_trial_accounts_the_lookups_before_the_raise(monkeypatch):
    """A lookup that raises out of an unprotected table is not
    accounted; the five that answered before it are: 5 lookups and 34
    steps, on top of the golden run's 10 lookups and 64 steps."""
    replicas = struck_replicas(monkeypatch)
    outcome, counters = classified_counters(
        MemoryDifferentialOracle("balanced-tree", "none", SMALL_ROUTES,
                                 SMALL_ADDRESSES),
        seed=68, site="tree-node", flips=1)
    assert (outcome.outcome, outcome.error_type) == \
        ("crash", "RoutingTableError")
    assert outcome.detail.startswith(
        "corrupt balanced-tree state during lookup: KeyError: ")
    assert counters == {
        ("routing_lookups_total", "kind=balanced-tree,outcome=hit"): 15,
        ("routing_lookup_steps_total", "kind=balanced-tree"): 98}
    assert replicas[-1].stats == TableStatistics(
        lookups=5, hits=5, total_lookup_steps=34,
        inserts=40, total_update_steps=40)


def test_failed_rows_counted_not_raised(tmp_path):
    """A sweep never dies on a classification failure; it records it."""
    result = MemorySweepRunner(**SWEEP).run()
    for row in result.rows:
        assert row["failed"] == 0  # this config classifies cleanly
        assert row["trials"] > 0


def test_trials_pack_each_route_once(monkeypatch):
    """Work floor: a trial re-packs nothing it already packed. Only the
    FIB's routes and the records a trial damages are laid out afresh
    (before the image memo: 217,572 layouts for these 168 trials)."""
    layouts = []

    def counting(entry, layout=memimage._pack_fields):
        layouts.append(entry)
        return layout(entry)

    monkeypatch.setattr(memimage, "_pack_fields", counting)
    result = api.memory_sdc_sweep(prefixes=300, jobs=1)
    assert len(result.records) == 168
    assert len(layouts) <= result.prefix_count + len(result.records)


# -- one clean build per kind ---------------------------------------------------------


def replica_state(table):
    """What a trial's replica of *table* starts from."""
    twin = table.replica()
    return ({site: twin.memory_records(site)
             for site in twin.memory_sites()},
            twin._route_words, twin._site_records, twin.stats,
            twin.protection)


@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_a_protection_view_equals_a_fresh_build(kind):
    """Each protection's view of one shared clean build equals a fresh
    oracle's build of that cell, and a table loaded and checkpointed
    under that protection alone: golden replay, pricing inputs, and the
    replica a trial strikes (records, route words, baseline, stats)."""
    routes = synthesize_fib(60, seed=2026)
    addresses = zipf_addresses(routes, 30, seed=77)
    build = CleanBuild(kind, routes, addresses)
    for protection in PROTECTION_MODES:
        view = MemoryDifferentialOracle.over(build, protection)
        fresh = MemoryDifferentialOracle(kind, protection, routes,
                                         addresses)
        for oracle in (view, fresh):
            assert oracle.protection == protection
        assert view.build.golden == fresh.build.golden
        assert view.build.golden_steps == fresh.build.golden_steps
        assert view.step_budget == fresh.step_budget
        assert view.build.mean_lookup_steps == \
            fresh.build.mean_lookup_steps
        assert view.build.table_memory_bytes == \
            fresh.build.table_memory_bytes
        assert view.build.protected_records == \
            fresh.build.protected_records
        assert replica_state(view.clean) == replica_state(fresh.clean)

        alone = ProtectedRoutingTable(
            make_table(kind, capacity=len(routes) + 8), protection)
        alone.load(routes)
        alone.checkpoint()
        assert replica_state(view.clean) == replica_state(alone)
        assert view.build.protected_records == alone.protected_records()
        assert view.build.table_memory_bytes == alone.table_memory_bytes()
        steps = alone.stats.total_lookup_steps
        assert view.build.golden == [
            _lookup_signature(alone.lookup(address))
            for address in addresses]
        assert view.build.golden_steps == \
            alone.stats.total_lookup_steps - steps


def test_a_view_needs_a_protected_checkpoint():
    """Only a protected table's checkpoint reads the baseline its views
    share, and a view is of a checkpoint."""
    table = ProtectedRoutingTable(make_table("cam", capacity=68), "none")
    table.load(SMALL_ROUTES)
    table.checkpoint()
    with pytest.raises(RoutingTableError, match="no scrub baseline"):
        table.under("parity")
    table = ProtectedRoutingTable(make_table("cam", capacity=68), "parity")
    table.load(SMALL_ROUTES)
    with pytest.raises(RoutingTableError, match="no scrub baseline"):
        table.under("parity")
    table.checkpoint()
    with pytest.raises(RoutingTableError, match="unknown protection"):
        table.under("voodoo")


def test_an_answer_with_the_golden_prefix_can_still_be_silent_corruption():
    """A strike on a CAM row's next hop keeps the answer's prefix: the
    answer is a new entry, compared by its signature, and the trial is
    silent corruption (an answer counts as equal without a signature
    only when it is the golden entry itself)."""
    outcome = MemoryDifferentialOracle(
        "cam", "none", SMALL_ROUTES, SMALL_ADDRESSES).classify(
        seed=20, site="cam-row", flips=1)
    # sram bits 136-263 of a row hold the next hop
    assert outcome.faults[0]["detail"] == \
        "cam-row[4] sram bit 167 (25ae:c797:8e7a::/48)"
    assert (outcome.outcome, outcome.detail) == \
        ("sdc", "silent divergence on 1/10 lookups")
