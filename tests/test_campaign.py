"""Campaign resilience: fault isolation, journal, crash-safe resume."""

import json

import pytest

from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    PoisonedEvaluator,
    generate_table1,
    load_journal,
    paper_space,
    render_table1,
    run_table1_campaign,
    write_atomic,
)
from repro.dse.campaign import (
    config_key,
    failure_from_record,
    failure_to_record,
    EvaluationFailure,
)
from repro.errors import (
    CampaignError,
    CycleBudgetError,
    FunctionalMismatchError,
)
from repro.tta import DEFAULT_MAX_CYCLES, LoopSignature

#: in the paper's space but not among the Table 1 configurations, so the
#: quarantine shows up in sweeps without breaking Table 1 regeneration
POISON = ArchitectureConfiguration(
    bus_count=1, matchers=3, counters=3, comparators=3,
    table_kind="balanced-tree")


def small_evaluator(**kwargs):
    return ArchitectureEvaluator(table_entries=20, packet_batch=4, **kwargs)


class CountingEvaluator:
    """Counts how many configurations the campaign actually re-evaluates."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.calls = 0

    def evaluate(self, config, max_cycles=None):
        self.calls += 1
        return self.evaluator.evaluate(config, max_cycles=max_cycles)

    def __getattr__(self, name):
        return getattr(self.evaluator, name)


def resume_runner(journal_path):
    """A fresh, counting, equally-poisoned runner resuming *journal_path*."""
    counting = CountingEvaluator(
        PoisonedEvaluator(small_evaluator(), [POISON]))
    runner = CampaignRunner(counting, journal_path=str(journal_path),
                            resume=True)
    return runner, counting


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One uninterrupted poisoned sweep over the paper's space."""
    journal = tmp_path_factory.mktemp("campaign") / "journal.jsonl"
    evaluator = PoisonedEvaluator(small_evaluator(), [POISON])
    runner = CampaignRunner(evaluator, journal_path=str(journal))
    configs = paper_space().configurations()
    campaign = runner.run(configs)
    return {
        "configs": configs,
        "campaign": campaign,
        "runner": runner,
        "journal": journal.read_text(),
        "render": campaign.render(),
    }


class TestFaultIsolation:
    def test_poisoned_sweep_completes(self, sweep):
        campaign = sweep["campaign"]
        assert len(campaign.records) == 12
        assert len(campaign.results) == 11
        [failure] = campaign.failures
        assert failure.config == POISON
        assert failure.error == "FunctionalMismatchError"
        assert failure.quarantined
        assert campaign.quarantined == [POISON]

    def test_render_reports_quarantine(self, sweep):
        text = sweep["render"]
        assert text.count("QUARANTINED") == 1
        assert "FunctionalMismatchError" in text
        assert text.rstrip().endswith("11 evaluated, 1 quarantined")

    def test_quarantined_config_not_retried(self, sweep):
        runner = sweep["runner"]
        [failure] = runner.run([POISON]).failures
        assert failure.config == POISON
        assert runner.quarantined == [POISON]

    def test_failure_record_roundtrip(self):
        failure = EvaluationFailure(
            config=POISON, error="CycleBudgetError", message="too slow",
            retries=1, cycle_budget=4000, cycles_executed=4000, pc=7,
            loop="pc loop [7->8] (period 2, x21 in the last window)")
        assert failure_from_record(failure_to_record(failure)) == failure

    def test_config_key_normalises_cam_latency(self):
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        assert config_key(config.with_cam_latency(5)) == config_key(config)


class TestJournal:
    def test_every_outcome_journaled(self, sweep):
        records = [json.loads(line)
                   for line in sweep["journal"].splitlines()]
        assert len(records) == 12
        statuses = [r["status"] for r in records]
        assert statuses.count("ok") == 11
        assert statuses.count("failed") == 1

    def test_load_journal_tolerates_torn_tail(self, tmp_path):
        # only the final line can be torn by a crash: it is discarded
        path = tmp_path / "journal.jsonl"
        path.write_text('{"v":1,"key":"a","status":"ok"}\n'
                        '{"v":1,"key":"b","status"')
        records, discarded = load_journal(str(path))
        assert len(records) == 1
        assert discarded == 1

    def test_load_journal_tolerates_invalid_final_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"v":1,"key":"a","status":"ok"}\n'
                        '{"missing":"fields"}\n')
        records, discarded = load_journal(str(path))
        assert len(records) == 1
        assert discarded == 1

    @pytest.mark.parametrize("bad_line", [
        "not json at all",
        '{"v":99,"key":"b","status":"ok"}',  # wrong journal version
        '{"missing":"fields"}',
    ])
    def test_load_journal_raises_on_mid_file_damage(self, tmp_path,
                                                    bad_line):
        # a bad line *before* the tail is journal damage, not a crash
        # artifact: silently re-evaluating would mask data loss
        path = tmp_path / "journal.jsonl"
        path.write_text('{"v":1,"key":"a","status":"ok"}\n'
                        f'{bad_line}\n'
                        '{"v":1,"key":"c","status":"ok"}\n')
        with pytest.raises(CampaignError, match="line 2"):
            load_journal(str(path))

    def test_existing_journal_refused_without_resume(self, tmp_path, sweep):
        path = tmp_path / "journal.jsonl"
        path.write_text(sweep["journal"])
        with pytest.raises(CampaignError):
            CampaignRunner(small_evaluator(), journal_path=str(path))

    def test_resume_requires_a_journal_path(self):
        with pytest.raises(CampaignError):
            CampaignRunner(small_evaluator(), resume=True)

    def test_write_atomic(self, tmp_path):
        path = tmp_path / "out.txt"
        write_atomic(str(path), "first\n")
        write_atomic(str(path), "second\n")
        assert path.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp files left


class TestResume:
    def test_complete_journal_reevaluates_nothing(self, sweep, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_text(sweep["journal"])
        runner, counting = resume_runner(journal)
        campaign = runner.run(sweep["configs"])
        assert counting.calls == 0
        assert campaign.resumed == 12
        assert campaign.render() == sweep["render"]

    def test_torn_record_reevaluates_only_that_config(self, sweep, tmp_path):
        journal = tmp_path / "journal.jsonl"
        lines = sweep["journal"].splitlines(keepends=True)
        # crash while the 12th record was being written: a torn tail
        journal.write_text("".join(lines[:11]) + lines[11][:25])
        runner, counting = resume_runner(journal)
        assert runner.discarded_records == 1
        # the compacted journal is clean again
        records, discarded = load_journal(str(journal))
        assert len(records) == 11 and discarded == 0
        campaign = runner.run(sweep["configs"])
        assert counting.calls == 1  # only the torn config
        assert campaign.resumed == 11
        assert campaign.render() == sweep["render"]
        assert journal.read_text() == sweep["journal"]

    def test_kill_mid_sweep_resume_is_byte_identical(self, sweep, tmp_path):
        journal = tmp_path / "journal.jsonl"
        lines = sweep["journal"].splitlines(keepends=True)
        journal.write_text("".join(lines[:5]))  # killed after 5 records
        runner, counting = resume_runner(journal)
        campaign = runner.run(sweep["configs"])
        assert counting.calls == 7
        assert campaign.resumed == 5
        assert campaign.render() == sweep["render"]
        assert campaign.quarantined == [POISON]
        assert journal.read_text() == sweep["journal"]

    def test_resumed_table1_rows_match_live_evaluation(self, sweep,
                                                       tmp_path):
        # determinism: rows reconstructed from the journal are rendered
        # byte-identically to a from-scratch evaluation
        journal = tmp_path / "journal.jsonl"
        journal.write_text(sweep["journal"])
        runner, counting = resume_runner(journal)
        rows, campaign = run_table1_campaign(runner)
        assert counting.calls == 0
        assert len(rows) == 9
        assert not campaign.failures
        live = generate_table1(small_evaluator())
        assert render_table1(rows) == render_table1(live)


class FlakyBudgetEvaluator:
    """Raises a budget failure below *threshold*, then delegates."""

    def __init__(self, evaluator, threshold):
        self.evaluator = evaluator
        self.threshold = threshold
        self.calls = 0

    def evaluate(self, config, max_cycles=None):
        self.calls += 1
        if max_cycles is not None and max_cycles < self.threshold:
            raise CycleBudgetError(
                f"program did not halt within {max_cycles} cycles",
                cycles=max_cycles, pc=3)
        return self.evaluator.evaluate(config, max_cycles=max_cycles)


class RunawayEvaluator:
    """Never halts under any budget."""

    def evaluate(self, config, max_cycles=None):
        raise CycleBudgetError(
            f"program did not halt within {max_cycles} cycles (pc=7)",
            cycles=max_cycles, pc=7, loop=LoopSignature(pcs=(7, 8),
                                                        repeats=21))


class TestBudgetPolicy:
    def test_budget_failure_retried_at_larger_budget(self):
        flaky = FlakyBudgetEvaluator(small_evaluator(), threshold=200_000)
        runner = CampaignRunner(flaky, cycle_budget=100_000)
        config = ArchitectureConfiguration(bus_count=3,
                                           table_kind="sequential")
        [result] = runner.run([config]).results  # retry at 400k succeeds
        assert flaky.calls == 2
        assert result.cycles_per_packet > 0

    def test_runaway_quarantined_after_exhausted_retries(self):
        runner = CampaignRunner(RunawayEvaluator(), cycle_budget=1000)
        config = ArchitectureConfiguration(bus_count=3,
                                           table_kind="sequential")
        campaign = runner.run([config])
        [failure] = campaign.failures
        assert failure.error == "CycleBudgetError"
        assert failure.retries == 1
        assert failure.cycle_budget == 4000  # one retry at 4x
        assert failure.cycles_executed == 4000 and failure.pc == 7
        assert "pc loop [7->8]" in failure.loop
        assert "after 1 retry(ies)" in failure.render()

    def test_default_budget_when_none_is_given(self):
        assert CampaignRunner(small_evaluator()).cycle_budget \
            == DEFAULT_MAX_CYCLES
        assert CampaignRunner(small_evaluator(),
                              cycle_budget=None).cycle_budget \
            == DEFAULT_MAX_CYCLES

    @pytest.mark.parametrize("budget", [0, -5])
    def test_runner_built_directly_refuses_a_budget_below_one(
            self, budget, tmp_path):
        """A runner built without table1_workload applies the same rule
        before it touches the journal."""
        journal = tmp_path / "t1.jsonl"
        with pytest.raises(CampaignError,
                           match=f"cycle budget must be >= 1, got {budget}"):
            CampaignRunner(small_evaluator(), journal_path=str(journal),
                           cycle_budget=budget)
        assert not journal.exists()

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget, tmp_path):
        """Neither the default nor a sweep that quarantines everything:
        the budget is refused before the journal is touched."""
        from repro import api
        journal = tmp_path / "t1.jsonl"
        with pytest.raises(CampaignError,
                           match=f"cycle budget must be >= 1, got {budget}"):
            api.table1_campaign(entries=20, packets=4, cycle_budget=budget,
                                journal=str(journal))
        assert not journal.exists()

    @pytest.mark.parametrize("budget", [0, -3])
    def test_evaluate_refuses_a_budget_below_one(self, budget, monkeypatch):
        """Neither the default budget nor a CycleBudgetError: the
        refusal comes before anything is simulated."""
        from repro import api
        from repro.dse import evaluator

        def simulate(*args, **kwargs):
            raise AssertionError("simulated under a refused budget")
        monkeypatch.setattr(evaluator, "run_forwarding", simulate)
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        with pytest.raises(CampaignError,
                           match=f"cycle budget must be >= 1, got {budget}"):
            api.evaluate(config, entries=10, packets=2, max_cycles=budget)


class TestMismatchDiagnostics:
    def test_mismatch_error_carries_failed_run(self, monkeypatch):
        from repro.programs.runner import ForwardingRunResult
        from repro.tta.stats import SimulationReport

        def fake_run(config, routes, packets, max_cycles=0,
                     detect_hazards=False, **kwargs):
            report = SimulationReport(bus_busy_cycles=[0] * config.bus_count)
            report.cycles = 321
            return ForwardingRunResult(
                config=config, report=report,
                packets_offered=len(packets), packets_forwarded=0,
                packets_dropped=len(packets),
                mismatches=["pkt0: iface 1 != 2"])

        monkeypatch.setattr("repro.dse.evaluator.run_forwarding", fake_run)
        with pytest.raises(FunctionalMismatchError) as err:
            small_evaluator().evaluate(ArchitectureConfiguration(
                bus_count=3, table_kind="sequential"))
        assert err.value.run is not None
        assert err.value.run.mismatches == ["pkt0: iface 1 != 2"]
        assert "321 cycles executed" in str(err.value)

    def test_campaign_records_mismatch_evidence(self, monkeypatch, sweep):
        # the quarantine record preserves what failed, not just that it did
        record = sweep["runner"]._records[config_key(POISON)]
        assert record["status"] == "failed"
        assert "poisoned" in record["message"]


class TestAtomicWrite:
    def test_crash_mid_write_leaves_the_old_file_intact(
            self, tmp_path, monkeypatch):
        from repro.dse.sweep import write_atomic_bytes

        target = tmp_path / "table1.json"
        target.write_bytes(b"old")

        def power_loss(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr("os.replace", power_loss)
        with pytest.raises(OSError):
            write_atomic_bytes(str(target), b"new")
        assert target.read_bytes() == b"old"
        # the aborted temp file is cleaned up, not left as litter
        assert [p.name for p in tmp_path.iterdir()] == ["table1.json"]


class TestRetryWithoutMetrics:
    def test_env_kill_switch_disables_a_fresh_registry(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setenv("REPRO_NO_METRICS", "1")
        assert MetricsRegistry().enabled is False

    def test_budget_retry_works_with_metrics_disabled(self, monkeypatch):
        # the supervision/retry machinery must not depend on the obs
        # layer being live: REPRO_NO_METRICS=1 runs record nothing but
        # still retry failed budgets exactly as instrumented runs do
        from repro.obs import get_registry

        monkeypatch.setenv("REPRO_NO_METRICS", "1")
        registry = get_registry()
        registry.disable()
        try:
            before = registry.snapshot()
            flaky = FlakyBudgetEvaluator(small_evaluator(),
                                         threshold=200_000)
            runner = CampaignRunner(flaky, cycle_budget=100_000)
            config = ArchitectureConfiguration(bus_count=3,
                                               table_kind="sequential")
            campaign = runner.run([config])
            assert flaky.calls == 2  # failed at 100k, retried at 400k
            assert not campaign.failures
            [record] = campaign.records
            assert record["status"] == "ok"
            assert registry.snapshot() == before
        finally:
            registry.enable()


class TestCli:
    def test_table1_refuses_stale_journal(self, tmp_path, capsys):
        from repro.cli import main
        journal = tmp_path / "journal.jsonl"
        journal.write_text("left over from a previous campaign\n")
        rc = main(["table1", "--journal", str(journal)])
        assert rc == 2
        assert "already exists" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_table1_refuses_a_budget_below_one(self, budget, capsys):
        from repro.cli import main
        rc = main(["table1", "--entries", "20", "--packets", "4",
                   "--cycle-budget", budget])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"table1 failed: cycle budget must be >= 1, got {budget}\n"
