"""The shared sweep engine: crash and stall re-probe, plan-order journals.

Every journaled sweep (lookup, datapath SDC, memory SDC, campaign) runs
on :class:`repro.dse.sweep.JournaledSweep`, so one set of tests covers
the pool driver for all of them. A worker is killed outright with
``os._exit`` on one chosen item — a crash the pool sees as a broken
executor, not a Python exception — or hangs forever on it, which only
the stall deadline can detect.
"""

import json
import multiprocessing
import os
import time
from functools import partial

import pytest

from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    config_key,
    paper_configurations,
    paper_space,
)
from repro.dse.config import TABLE_KINDS
from repro.dse.lookup_sweep import LookupSweepRunner
from repro.dse.sdc import MemorySweepRunner, SdcSweepRunner
from repro.dse.sweep import SupervisionPolicy

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


def _campaign(jobs, journal):
    runner = CampaignRunner(
        ArchitectureEvaluator(table_entries=10, packet_batch=2), journal,
        jobs=jobs)
    configs = [config for kind in TABLE_KINDS
               for config in paper_configurations(kind)]
    return runner, partial(runner.run, configs)


#: the stall tests also cover the campaign runner, whose failure records
#: carry fields its success records lack
STALL_SWEEPS = {**SWEEPS, "campaign": _campaign}


def _item_key(item):
    if isinstance(item, ArchitectureConfiguration):
        return config_key(item)
    return item.key


def _hang_on(measure, target, item, context):
    """*measure*, except that the worker measuring *target* never
    returns."""
    if _item_key(item) == target:
        while True:
            time.sleep(60)
    return measure(item, context)


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


def _run(name, tmp_path, label, jobs, kill=None, hang=None):
    """Run sweep *name*; returns (runner, result, journal bytes)."""
    journal = tmp_path / f"{label}.jsonl"
    runner, run = STALL_SWEEPS[name](jobs, str(journal))
    if kill is not None:
        target, sentinel = kill
        runner.measure = partial(_kill_on, type(runner).measure, target,
                                 sentinel)
    if hang is not None:
        runner.measure = partial(_hang_on, type(runner).measure, hang)
        runner.supervision = SupervisionPolicy(heartbeat_seconds=0.5)
    result = run()
    return runner, result, journal.read_bytes()


@pytest.fixture(scope="module", params=sorted(SWEEPS))
def sequential(request, tmp_path_factory):
    name = request.param
    _, result, journal = _run(name, tmp_path_factory.mktemp(name), "seq", 1)
    return name, result, journal


@pytest.fixture(scope="module", params=sorted(STALL_SWEEPS))
def stall_sequential(request, tmp_path_factory):
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
        CampaignRunner(factory(), str(parallel), jobs=2,
                       chunk_size=1).run(configs)
        assert parallel.read_bytes() == sequential.read_bytes()


def _journal_keys(journal):
    return [json.loads(line)["key"] for line in journal.splitlines()]


class TestWorkerStall:
    def test_hung_item_fails_alone_with_a_stall(self, stall_sequential,
                                                tmp_path):
        name, expected, expected_journal = stall_sequential
        target = _target(expected)
        started = time.monotonic()
        runner, result, journal = _run(name, tmp_path, "par", 2,
                                       hang=target)
        assert time.monotonic() - started < 10
        assert [r["key"] for r in result.records] \
            == [r["key"] for r in expected.records]
        for record, reference in zip(result.records, expected.records):
            if record["key"] == target:
                assert record["status"] == "failed"
                assert record["error"] == "WorkerStallError"
            else:
                assert record == reference
        # the journal is the sequential one, the hung item's line aside
        assert _journal_keys(journal) == _journal_keys(expected_journal)
        lines, expected_lines = journal.splitlines(), \
            expected_journal.splitlines()
        target_at = _journal_keys(journal).index(target)
        del lines[target_at], expected_lines[target_at]
        assert lines == expected_lines
        # one pool teardown and one terminated probe; no crash; one
        # shrink after the broken generation
        assert runner.stalls == 2
        assert runner.worker_crashes == 0
        assert runner.pool_shrinks == 1 and runner.jobs == 1
        # chunks are timed with metrics on or off: the stall deadline
        # grows from these latencies
        assert runner.slowest_chunk_seconds > 0
