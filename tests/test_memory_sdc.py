"""Memory-state SDC sweep: determinism, resume, coverage, pinned SDC."""

import copy
import json
import os

import pytest

from repro import api
from repro.dse import sweep
from repro.errors import CampaignError, RoutingTableError
from repro.dse.sdc import (
    DEFAULT_MEMORY_LOOKUPS,
    DEFAULT_TRAFFIC_SEED,
    MemorySweepRunner,
    MemoryTrial,
    memory_sites_for,
    plan_memory_trials,
)
from repro.faults.memory import MemoryFault
from repro.faults.seeds import derive_seed
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing import (
    PROTECTION_MODES,
    TABLE_KINDS,
    ProtectedRoutingTable,
    make_table,
    memimage,
)
from repro.routing.base import TableStatistics
from repro.routing.entry import RouteEntry
from repro.verify.oracle import (
    CleanBuild,
    MemoryDifferentialOracle,
    _lookup_signature,
)
from repro.workload.fib import synthesize_fib, zipf_addresses
from tests.test_routing_counters import PINNED, pinned_counters

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


# -- replaying only the lookups a strike can reach ----------------------------------


@pytest.mark.parametrize("fib_seed", [2026, 7])
@pytest.mark.parametrize("prefixes", [60, 300])
@pytest.mark.parametrize("kind", sorted(TABLE_KINDS))
def test_each_read_recorder_answers_as_its_lookup(kind, prefixes, fib_seed):
    """A kind's read recorder returns ``_lookup``'s own ``(entry,
    steps)`` for every golden address, publishes nothing, and the build
    keeps those pairs as its golden ones."""
    routes = synthesize_fib(prefixes, seed=fib_seed)
    addresses = zipf_addresses(routes, DEFAULT_MEMORY_LOOKUPS,
                               seed=DEFAULT_TRAFFIC_SEED)
    table = make_table(kind, capacity=len(routes) + 8)
    table.load(routes)
    stats = copy.copy(table.stats)
    recorded = [table.lookup_reads(address) for address in addresses]
    assert table.stats == stats
    for (entry, steps, _), address in zip(recorded, addresses):
        want_entry, want_steps = table._lookup(address)
        assert entry is want_entry
        assert steps == want_steps
    build = CleanBuild(kind, routes, addresses)
    assert build.golden_pairs == [(entry, steps)
                                  for entry, steps, _ in recorded]


def full_replay(build):
    """The reference: *build*'s trials with every position reached, as
    every trial ran before a strike's readers were recorded."""
    reference = copy.copy(build)
    reference.reached = lambda faults: None
    return reference


def cell_trials(build, protection, flips, seeds, replicas):
    """Each trial's outcome and replica stats over *seeds* of every
    site of *build*'s cell, and the routing counters they publish."""
    oracle = MemoryDifferentialOracle.over(build, protection)
    trials = []

    def run():
        for site in memory_sites_for(build.kind):
            for seed in seeds:
                outcome = oracle.classify(seed=seed, site=site, flips=flips)
                trials.append((site, seed, outcome.to_dict(),
                               replicas[-1].stats))

    return trials, pinned_counters(run, names=PINNED)


#: every kind x protection x site, 40 seeds, at the default FIB seed
#: and at a held-out one
PRUNED_CELLS = [(kind, protection, fib_seed)
                for kind in sorted(TABLE_KINDS)
                for protection in PROTECTION_MODES
                for fib_seed in (2026, 11)]


@pytest.mark.parametrize("kind,protection,fib_seed", PRUNED_CELLS)
def test_a_pruned_replay_equals_a_full_one(kind, protection, fib_seed,
                                           monkeypatch):
    """Replaying only the positions a strike reaches classifies every
    trial as a full replay does: the same outcome record, the same
    replica stats and the same published routing counters, at one flip
    (pruned) and at three (replayed in full)."""
    routes = synthesize_fib(60, seed=fib_seed)
    addresses = zipf_addresses(routes, 60, seed=DEFAULT_TRAFFIC_SEED)
    build = CleanBuild(kind, routes, addresses)
    reference = full_replay(build)
    replicas = struck_replicas(monkeypatch)
    for flips in (1, 3):
        seeds = range(100 * flips, 100 * flips + 40)
        assert cell_trials(build, protection, flips, seeds, replicas) == \
            cell_trials(reference, protection, flips, seeds, replicas)


def route(prefix, interface):
    return RouteEntry(Ipv6Prefix.parse(prefix),
                      Ipv6Address.parse("fe80::1"), interface)


#: a /48 under its /32, and two of the /48's siblings the /32 answers
NESTED = [route("2001:db8::/32", 1), route("2001:db8:1::/48", 2)]
NESTED_ADDRESSES = [Ipv6Address.parse("2001:db8:1::1"),
                    Ipv6Address.parse("2001:db8::1"),
                    Ipv6Address.parse("2001:db8:3::1")]
#: two /32s in one trie node; the second address probes the node above
#: at the chunk its child page is filed under, with the low bit cleared
TRIE_PAIR = [route("2001:db8::/32", 1), route("2001:db9::/32", 2)]
TRIE_ADDRESSES = [Ipv6Address.parse("2001:db8::1"),
                  Ipv6Address.parse("2001:cb8::1")]

#: a strike, the positions it reaches (the lookup the struck record
#: answered and every address its new content matches), and the one of
#: them it changes without the record having answered it
CAPTURES = {
    # network bit 47 of the /48 entry (its image numbers bits from the
    # low end of each byte): the entry becomes the sibling 2001:db8::/48
    "sequential-network": ("sequential", NESTED, NESTED_ADDRESSES,
                           "entry", 0, 40, {0, 1}, 1),
    # the /48 line's value bit 47 does the same; clearing its mask bit
    # 46 instead makes the line match 2001:db8:3::/48 too
    "cam-value": ("cam", NESTED, NESTED_ADDRESSES, "cam-row", 0, 47,
                  {0, 1}, 1),
    "cam-mask": ("cam", NESTED, NESTED_ADDRESSES, "cam-row", 0, 128 + 46,
                 {0, 2}, 2),
    # the depth-2 node's one child pointer re-keyed from chunk 0x0d to
    # 0x0c: the second address now descends to the /32s' node
    "trie-child": ("multibit-trie", TRIE_PAIR, TRIE_ADDRESSES,
                   "trie-node", 2, 15, {0, 1}, 1),
}


@pytest.mark.parametrize("case", sorted(CAPTURES))
def test_a_strike_reaches_the_lookups_its_new_content_captures(case):
    """A strike can change the answer of a lookup that never read the
    struck record; that lookup is reached, and the pruned replay equals
    the full one under every protection."""
    kind, routes, addresses, site, index, bit, reached, captured = \
        CAPTURES[case]
    build = CleanBuild(kind, routes, addresses)
    fault = MemoryFault(site=site, index=index, bit=bit, detail="")
    assert build.reached([fault]) == reached
    table = build.table.under("none").replica()
    table.corrupt_memory(site, index, bit)
    changed = {position for position, (address, pair)
               in enumerate(zip(addresses, build.golden_pairs))
               if table._lookup(address) != pair}
    assert captured in changed <= reached
    for protection in PROTECTION_MODES:
        replays = []
        for replayed in (reached, None):
            table = build.table.under(protection).replica()
            table.corrupt_memory(site, index, bit)
            replays.append((*table.lookup_within(
                addresses, None, build.golden_pairs, replayed),
                table.stats, table.detected_corruptions))
        assert replays[0] == replays[1]


def test_a_trial_of_more_than_one_strike_reaches_every_position():
    """One SRAM strike reaches the lookup its line answered; a second
    strike can reorder a site's records, so two reach every position."""
    build = CleanBuild("cam", NESTED, NESTED_ADDRESSES)
    faults = [MemoryFault(site="cam-row", index=index, bit=300, detail="")
              for index in (0, 1)]
    assert build.reached(faults[:1]) == {0}
    assert build.reached(faults) is None


def test_trials_replay_only_the_lookups_their_strikes_reach(monkeypatch):
    """Work floor: the default 300-prefix sweep's 168 trials made 200
    inner lookups each, 34,600 with the five golden replays. Now a trial
    looks up the positions its strike reaches, and every position after
    a live detection: 1,706 lookups, beside the 1,000 golden ones and
    the 200 of the sequential kind's recording pass."""
    lookups = []
    for cls in TABLE_KINDS.values():
        def counting(self, address, lookup=cls._lookup):
            lookups.append(address)
            return lookup(self, address)

        monkeypatch.setattr(cls, "_lookup", counting)
    result = api.memory_sdc_sweep(prefixes=300, jobs=1)
    assert len(result.records) == 168
    assert len(lookups) == 2906
