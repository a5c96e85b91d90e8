"""Parallel campaigns: pool fan-out, determinism, crash survival."""

import copy
import json
import os
import pickle
from functools import partial

import pytest

from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    PoisonedEvaluator,
    config_key,
    load_journal,
    paper_space,
)
from repro.errors import CampaignError, FunctionalMismatchError

#: small workload shared by every sweep in this module
small_factory = partial(ArchitectureEvaluator, table_entries=20,
                        packet_batch=4)

#: in the paper's space but not among the Table 1 configurations
POISON = ArchitectureConfiguration(
    bus_count=1, matchers=3, counters=3, comparators=3,
    table_kind="balanced-tree")

#: the configuration that kills its worker process outright
CRASH = ArchitectureConfiguration(
    bus_count=3, matchers=3, counters=3, comparators=3,
    table_kind="balanced-tree")


def poisoned_factory():
    return PoisonedEvaluator(small_factory(), [POISON])


class CrashingEvaluator:
    """Takes the whole worker process down on one configuration —
    simulates a segfault/OOM kill, not a contained Python exception."""

    def __init__(self):
        self.evaluator = small_factory()

    def evaluate(self, config, max_cycles=None):
        if config_key(config) == config_key(CRASH):
            os._exit(13)
        return self.evaluator.evaluate(config, max_cycles=max_cycles)


@pytest.fixture(scope="module")
def configs():
    return paper_space().configurations()


@pytest.fixture(scope="module")
def sequential(configs):
    return CampaignRunner(small_factory()).run(configs)


@pytest.fixture(scope="module")
def parallel(configs):
    runner = CampaignRunner(small_factory(), jobs=2, chunk_size=1)
    return runner.run(configs), runner


class TestDeterminism:
    def test_records_byte_identical(self, sequential, parallel):
        campaign, _ = parallel
        assert campaign.records == sequential.records

    def test_render_byte_identical(self, sequential, parallel):
        campaign, _ = parallel
        assert campaign.render() == sequential.render()

    def test_results_in_input_order(self, configs, parallel):
        campaign, _ = parallel
        assert [r["key"] for r in campaign.records] \
            == [config_key(c) for c in configs]
        assert len(campaign.results) == len(configs)
        assert not campaign.failures

    def test_jobs_1_is_the_sequential_runner(self, configs, sequential):
        runner = CampaignRunner(small_factory(), jobs=1)
        campaign = runner.run(configs[:3])
        assert campaign.records == sequential.records[:3]

    def test_satisfies_the_evaluator_protocols(self, parallel):
        from repro.dse import BatchEvaluator, EvaluatorProtocol, \
            supports_batching
        _, runner = parallel
        assert isinstance(runner, EvaluatorProtocol)
        assert isinstance(runner, BatchEvaluator)
        assert supports_batching(runner)


class TestValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(CampaignError):
            CampaignRunner(small_factory(), jobs=0)

    def test_rejects_zero_chunk_size(self):
        with pytest.raises(CampaignError):
            CampaignRunner(small_factory(), jobs=2, chunk_size=0)


class TestCrashSurvival:
    def test_worker_crash_is_quarantined_not_fatal(self, configs):
        runner = CampaignRunner(CrashingEvaluator(), jobs=2, chunk_size=1)
        campaign = runner.run(configs)
        assert len(campaign.records) == len(configs)
        assert len(campaign.results) == len(configs) - 1
        [failure] = campaign.failures
        assert failure.config == CRASH
        assert failure.error == "WorkerCrashError"
        assert runner.worker_crashes >= 1
        # the rest of the sweep is unharmed and correctly ordered
        assert [r["key"] for r in campaign.records] \
            == [config_key(c) for c in configs]


class TestContainedFailures:
    def test_poisoned_config_fails_in_worker_without_killing_it(
            self, configs, sequential):
        runner = CampaignRunner(poisoned_factory(), jobs=2, chunk_size=1)
        campaign = runner.run(configs)
        [failure] = campaign.failures
        assert failure.config == POISON
        assert failure.error == "FunctionalMismatchError"
        assert runner.worker_crashes == 0
        # every healthy record matches the sequential sweep bit for bit
        healthy = [r for r in campaign.records if r["status"] == "ok"]
        expected = [r for r in sequential.records
                    if r["key"] != config_key(POISON)]
        assert healthy == expected


class TestResume:
    def test_parallel_resume_reevaluates_only_lost_configs(
            self, configs, sequential, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first = CampaignRunner(small_factory(), str(journal), jobs=2,
                               chunk_size=1)
        full = first.run(configs)
        full_text = journal.read_text()
        # simulate a crash after 5 of 12 records were journalled
        lines = full_text.splitlines(keepends=True)
        journal.write_text("".join(lines[:5]))
        second = CampaignRunner(small_factory(), str(journal), resume=True,
                                jobs=2, chunk_size=1)
        campaign = second.run(configs)
        assert campaign.resumed == 5
        assert campaign.render() == full.render()
        assert campaign.records == sequential.records
        records, discarded = load_journal(str(journal))
        assert discarded == 0
        assert sorted(r["key"] for r in records) \
            == sorted(config_key(c) for c in configs)


class TestPoisonedEvaluatorTransport:
    """The wrapper must survive pickling into a worker process."""

    def test_pickle_roundtrip_preserves_poisoning(self):
        clone = pickle.loads(pickle.dumps(poisoned_factory()))
        with pytest.raises(FunctionalMismatchError):
            clone.evaluate(POISON)

    def test_deepcopy_does_not_recurse(self):
        clone = copy.deepcopy(poisoned_factory())
        with pytest.raises(FunctionalMismatchError):
            clone.evaluate(POISON)

    def test_dunder_lookup_is_not_forwarded(self):
        with pytest.raises(AttributeError):
            poisoned_factory().__wrapped_dunder__


class TestCli:
    def test_table1_jobs_2_stdout_matches_jobs_1(self, capsys):
        from repro.cli import main
        assert main(["table1", "--entries", "20", "--packets", "4"]) == 0
        sequential_out = capsys.readouterr().out
        assert main(["table1", "--entries", "20", "--packets", "4",
                     "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == sequential_out

    def test_table1_output_json(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "table1.json"
        assert main(["table1", "--entries", "20", "--packets", "4",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 9
        assert payload["shape_violations"] == []
        assert payload["rows"][0]["measured"]["table_kind"] == "sequential"


class TestTransientCrashRecovery:
    """A one-shot worker kill (OOM-style, not a deterministic crasher)
    must end with the result recovered, not quarantined."""

    def test_supervised_pool_recovers_the_killed_config(
            self, tmp_path, configs, sequential):
        from repro.faults import ChaosEvaluatorFactory
        from repro.service import (SupervisedCampaignRunner,
                                   SupervisionPolicy)

        chaos = ChaosEvaluatorFactory(
            small_factory, sentinel_dir=str(tmp_path / "sentinels"),
            kill_config=CRASH)
        runner = SupervisedCampaignRunner(
            chaos(), jobs=2, chunk_size=1,
            supervision=SupervisionPolicy(heartbeat_seconds=None),
            sleep_fn=lambda seconds: None)
        campaign = runner.run(configs)
        # the sentinel made the kill one-shot: the re-probe re-evaluated
        # CRASH successfully, so nothing is quarantined and the records
        # are byte-identical to the sequential ground truth
        assert not campaign.failures
        assert campaign.records == sequential.records
        assert runner.worker_crashes >= 1
        assert runner.pool_shrinks == 1 and runner.jobs == 1
