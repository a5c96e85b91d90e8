"""E5 — extension: campaign resilience over the paper's design space.

The paper's evaluation is a sweep: every Table 1 configuration simulated
and estimated in one sitting. This experiment reruns that sweep as a
*campaign* with one deliberately poisoned configuration injected into the
space: the sweep must complete, quarantine exactly the poisoned entry,
and still emit valid rows for every other configuration. A simulated
mid-sweep crash (truncated journal) is then resumed, re-evaluating only
the configurations the journal lost and reproducing the uninterrupted
campaign's artifact byte for byte.
"""

from __future__ import annotations

from repro.dse import (
    ArchitectureConfiguration,
    CampaignRunner,
    PoisonedEvaluator,
    paper_space,
    run_table1_campaign,
)
from repro.dse.evaluator import ArchitectureEvaluator

POISON = ArchitectureConfiguration(
    bus_count=1, matchers=3, counters=3, comparators=3,
    table_kind="balanced-tree")


def _poisoned_runner(routes, packets, journal_path=None, resume=False):
    evaluator = PoisonedEvaluator(
        ArchitectureEvaluator(routes=routes, packets=packets), [POISON])
    return CampaignRunner(evaluator, journal_path=journal_path,
                          resume=resume)


def test_campaign_resilience(benchmark, routes100, worst_packets, tmp_path):
    journal = tmp_path / "journal.jsonl"
    configs = paper_space().configurations()

    runner = _poisoned_runner(routes100, worst_packets, str(journal))
    campaign = benchmark.pedantic(runner.run, args=(configs,),
                                  rounds=1, iterations=1)

    # the poisoned sweep completes with exactly one quarantined entry
    assert len(campaign.records) == len(configs)
    assert len(campaign.results) == len(configs) - 1
    assert campaign.quarantined == [POISON]

    # crash after five journal records, then resume: only the lost
    # configurations are re-evaluated and the artifact is byte-identical
    crashed = tmp_path / "crashed.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    crashed.write_text("".join(lines[:5]))
    resumed_runner = _poisoned_runner(routes100, worst_packets,
                                      str(crashed), resume=True)
    resumed = resumed_runner.run(configs)
    assert resumed.resumed == 5
    assert resumed.render() == campaign.render()
    assert crashed.read_text() == journal.read_text()

    # Table 1 regenerates from the same journal without re-simulating
    table_runner = _poisoned_runner(routes100, worst_packets,
                                    str(journal), resume=True)
    rows, table_campaign = run_table1_campaign(table_runner)
    assert len(rows) == 9
    assert not table_campaign.failures
    assert table_runner.resumed == 9

    print()
    print(campaign.render())
    print(f"resume re-evaluated {len(configs) - resumed.resumed} of "
          f"{len(configs)} configurations after the simulated crash")
