"""Memory-state SDC sweep: determinism, resume, coverage, pinned SDC."""

import json
import os

import pytest

from repro import api
from repro.errors import CampaignError
from repro.dse.sdc import (
    MemorySweepRunner,
    MemoryTrial,
    memory_sites_for,
    plan_memory_trials,
)
from repro.faults.seeds import derive_seed
from repro.routing import memimage
from repro.verify.oracle import MemoryDifferentialOracle
from repro.workload.fib import synthesize_fib, zipf_addresses

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


def test_lookup_budget_overrun_is_a_hang():
    """A trial whose lookups outrun the step budget is classified
    ``hang`` at the first lookup that takes the run past the budget;
    reaching the budget exactly is not an overrun."""
    routes = synthesize_fib(40, seed=2026)
    addresses = zipf_addresses(routes, 10, seed=77)

    class TinyBudget(MemoryDifferentialOracle):
        step_budget = 69  # the steps of the first three lookups

    outcome = TinyBudget("sequential", "none", routes, addresses).classify(
        seed=3, site="entry", flips=1)
    assert outcome.outcome == "hang"
    assert outcome.detail == \
        "lookup-step budget of 69 exhausted after 4 lookups"
    assert outcome.cycles == 100
    assert (outcome.faults_injected, outcome.faults_by_site) == \
        (1, {"entry": 1})


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
