"""The shared sweep engine: crash re-probe and plan-order journals.

Every journaled sweep (lookup, datapath SDC, memory SDC, campaign) runs
on :class:`repro.dse.sweep.JournaledSweep`, so one set of tests covers
the pool driver for all of them. A worker is killed outright with
``os._exit`` on one chosen item — a crash the pool sees as a broken
executor, not a Python exception.
"""

import multiprocessing
import os
from functools import partial

import pytest

from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    ParallelCampaignRunner,
    paper_space,
)
from repro.dse.lookup_sweep import LookupSweepRunner
from repro.dse.sdc import MemorySweepRunner, SdcSweepRunner

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill tests patch the measure in a forked parent")


def _lookup(jobs, journal):
    runner = LookupSweepRunner(
        kinds=("sequential", "cam"), prefix_counts=(40, 80), lookups=30,
        seed=3, jobs=jobs, journal_path=journal)
    return runner, runner.run


def _datapath(jobs, journal):
    runner = SdcSweepRunner(
        entries=8, packet_batch=2, sites=("bus", "result"), trials=2,
        rate=0.05, seed=3, jobs=jobs, journal_path=journal)
    config = ArchitectureConfiguration(bus_count=1, table_kind="sequential")
    return runner, partial(runner.run, [config])


def _memory(jobs, journal):
    runner = MemorySweepRunner(
        kinds=("sequential", "cam"), protections=("none", "parity"),
        prefixes=40, lookups=30, trials=2, seed=7, jobs=jobs,
        journal_path=journal)
    return runner, runner.run


SWEEPS = {"lookup": _lookup, "datapath": _datapath, "memory": _memory}


def _kill_on(measure, target, sentinel, item, context):
    """*measure*, except that the worker measuring *target* dies — once
    if a *sentinel* path is given, every time otherwise."""
    if item.key == target:
        if sentinel is None:
            os._exit(13)
        try:
            os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            pass
        else:
            os._exit(13)
    return measure(item, context)


def _run(name, tmp_path, label, jobs, kill=None):
    """Run sweep *name*; returns (runner, result, journal bytes)."""
    journal = tmp_path / f"{label}.jsonl"
    runner, run = SWEEPS[name](jobs, str(journal))
    if kill is not None:
        target, sentinel = kill
        runner.measure = partial(_kill_on, type(runner).measure, target,
                                 sentinel)
    result = run()
    return runner, result, journal.read_bytes()


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def sequential(request, tmp_path_factory):
    name = request.param
    _, result, journal = _run(name, tmp_path_factory.mktemp(name), "seq", 1)
    return name, result, journal


def _target(result):
    """A key in the middle of the plan."""
    return result.records[len(result.records) // 2]["key"]


class TestWorkerCrash:
    def test_one_shot_kill_recovers_byte_identically(self, sequential,
                                                     tmp_path):
        name, expected, expected_journal = sequential
        runner, result, journal = _run(
            name, tmp_path, "par", 2,
            kill=(_target(expected), str(tmp_path / "kill.tripped")))
        assert result.to_dict() == expected.to_dict()
        assert result.render() == expected.render()
        assert journal == expected_journal
        assert runner.worker_crashes == 1

    def test_deterministic_kill_quarantines_only_that_item(self, sequential,
                                                           tmp_path):
        name, expected, _ = sequential
        target = _target(expected)
        runner, result, _ = _run(name, tmp_path, "par", 2,
                                 kill=(target, None))
        assert [r["key"] for r in result.records] \
            == [r["key"] for r in expected.records]
        for record, reference in zip(result.records, expected.records):
            if record["key"] != target:
                assert record == reference
                continue
            assert record["status"] == "failed"
            assert record["error"] == "WorkerCrashError"
            identity = {key: value for key, value in record.items()
                        if key not in ("status", "error", "message")}
            assert identity == {key: reference[key] for key in identity}
        assert runner.worker_crashes >= 2  # the pool and the probe


class TestPlanOrderJournal:
    def test_jobs_2_journal_equals_jobs_1(self, sequential, tmp_path):
        name, expected, expected_journal = sequential
        _, result, journal = _run(name, tmp_path, "par", 2)
        assert journal == expected_journal
        assert result.to_dict() == expected.to_dict()

    def test_campaign_journal_equals_jobs_1(self, tmp_path):
        factory = partial(ArchitectureEvaluator, table_entries=10,
                          packet_batch=2)
        configs = paper_space().configurations()
        sequential = tmp_path / "seq.jsonl"
        parallel = tmp_path / "par.jsonl"
        CampaignRunner(factory(), journal_path=str(sequential)).run(configs)
        ParallelCampaignRunner(factory, jobs=2, chunk_size=1,
                               journal_path=str(parallel)).run(configs)
        assert parallel.read_bytes() == sequential.read_bytes()
