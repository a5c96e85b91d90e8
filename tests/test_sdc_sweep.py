"""SDC sweep campaigns: determinism, journaling, resume, CLI."""

import json

import pytest

from repro.api import sdc_sweep
from repro.cli import main as cli_main
from repro.dse.campaign import config_key
from repro.dse.config import ArchitectureConfiguration
from repro.dse.sdc import (
    SdcSweepRunner,
    SdcTrial,
    plan_trials,
    vulnerability_row,
)
from repro.errors import CampaignError
from repro.faults.seeds import derive_seed

CONFIGS = [
    ArchitectureConfiguration(bus_count=1, table_kind="sequential"),
    ArchitectureConfiguration(bus_count=2, table_kind="sequential"),
]
#: small but covering both latch sites and the datapath site
SITES = ("bus", "trigger")
SWEEP = dict(sites=SITES, trials=2, seed=3, entries=12, packet_batch=3)


def sweep(configs=CONFIGS, **overrides):
    kwargs = dict(SWEEP)
    kwargs.update(overrides)
    return SdcSweepRunner(**kwargs).run(configs)


@pytest.fixture(scope="module")
def sequential():
    return sweep()


class TestPlanning:
    def test_plan_shape_and_order(self):
        plan = plan_trials(CONFIGS, SITES, 2, 0.002, 0, None)
        assert len(plan) == len(CONFIGS) * len(SITES) * 2
        # config-major, then site, then index
        assert [(t.config.bus_count, t.site, t.index) for t in plan[:4]] \
            == [(1, "bus", 0), (1, "bus", 1),
                (1, "trigger", 0), (1, "trigger", 1)]

    def test_seeds_derive_from_identity_not_position(self):
        narrow = plan_trials(CONFIGS, ("bus",), 2, 0.002, 0, None)
        wide = plan_trials(CONFIGS, ("bus", "socket"), 3, 0.002, 0, None)
        narrow_seeds = {(config_key(t.config), t.site, t.index): t.seed
                        for t in narrow}
        wide_seeds = {(config_key(t.config), t.site, t.index): t.seed
                      for t in wide}
        for identity, seed in narrow_seeds.items():
            assert wide_seeds[identity] == seed
        expected = derive_seed(0, config_key(CONFIGS[0]), "bus", 1)
        assert narrow_seeds[(config_key(CONFIGS[0]), "bus", 1)] == expected

    def test_trial_key_is_canonical_json(self):
        trial = plan_trials(CONFIGS[:1], ("bus",), 1, 0.002, 0, None)[0]
        key = json.loads(trial.key)
        assert key["config"] == config_key(CONFIGS[0])
        assert key["site"] == "bus" and key["trial"] == 0

    def test_trial_key_separates_fault_caps(self):
        """A journalled trial is never resumed into a sweep with another
        fault cap: the cap is part of the key."""
        capped, uncapped = (
            plan_trials(CONFIGS[:1], ("bus",), 1, 0.002, 0, cap)[0]
            for cap in (1, None))
        assert capped.key != uncapped.key
        assert json.loads(capped.key)["max_faults"] == 1


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(CampaignError):
            SdcSweepRunner(jobs=0)

    def test_bad_trials(self):
        with pytest.raises(CampaignError):
            SdcSweepRunner(trials=0)

    def test_unknown_site(self):
        with pytest.raises(CampaignError):
            SdcSweepRunner(sites=("bus", "alu"))

    def test_resume_without_journal(self):
        with pytest.raises(CampaignError):
            SdcSweepRunner(resume=True)

    def test_existing_journal_without_resume_refuses(self, tmp_path):
        journal = tmp_path / "sdc.jsonl"
        journal.write_text('{"v": 1}\n')
        with pytest.raises(CampaignError, match="already exists"):
            SdcSweepRunner(journal_path=str(journal))


class TestDeterminism:
    def test_sequential_result_is_reproducible(self, sequential):
        again = sweep()
        assert again.to_dict() == sequential.to_dict()
        assert again.render() == sequential.render()

    def test_parallel_matches_sequential(self, sequential):
        parallel = sweep(jobs=2, chunk_size=2)
        assert parallel.to_dict() == sequential.to_dict()
        assert parallel.render() == sequential.render()

    def test_every_trial_is_recorded_in_plan_order(self, sequential):
        assert len(sequential.records) == len(CONFIGS) * len(SITES) * 2
        sites_seen = [r["site"] for r in sequential.records[:4]]
        assert sites_seen == ["bus", "bus", "trigger", "trigger"]
        assert all(r["status"] == "ok" for r in sequential.records)


class TestJournalResume:
    def test_resume_skips_done_trials_and_matches(self, tmp_path,
                                                  sequential):
        journal = str(tmp_path / "sdc.jsonl")
        # partial sweep: first configuration only
        sweep(configs=CONFIGS[:1], journal_path=journal)
        first_config_trials = len(SITES) * 2
        assert len(open(journal).readlines()) == first_config_trials

        runner = SdcSweepRunner(journal_path=journal, resume=True, **SWEEP)
        resumed = runner.run(CONFIGS)
        assert runner.resumed == first_config_trials
        assert resumed.resumed == first_config_trials
        # the resumed document is identical to the uninterrupted one
        assert resumed.to_dict() == sequential.to_dict()
        assert resumed.render() == sequential.render()

    def test_resume_with_parallel_finish(self, tmp_path, sequential):
        journal = str(tmp_path / "sdc.jsonl")
        sweep(configs=CONFIGS[:1], journal_path=journal)
        resumed = sweep(journal_path=journal, resume=True, jobs=2,
                        chunk_size=1)
        assert resumed.to_dict() == sequential.to_dict()

    def test_resume_of_a_complete_sweep_runs_nothing(self, tmp_path,
                                                     sequential):
        journal = str(tmp_path / "sdc.jsonl")
        sweep(journal_path=journal)
        total = len(CONFIGS) * len(SITES) * 2
        resumed = sweep(journal_path=journal, resume=True)
        assert resumed.resumed == total
        assert resumed.to_dict() == sequential.to_dict()


class TestVulnerabilityRow:
    @staticmethod
    def record(site, outcome, faults=1, status="ok"):
        base = {"status": status, "site": site}
        if status == "ok":
            base["outcome"] = {"outcome": outcome,
                               "faults_injected": faults}
        return base

    def test_rates_and_coverage(self):
        records = [
            self.record("bus", "masked", 0),
            self.record("bus", "sdc", 2),
            self.record("trigger", "detected", 3),
            self.record("trigger", "crash", 1),
            self.record("trigger", "hang", 4),
            self.record("bus", None, status="failed"),
        ]
        row = vulnerability_row(CONFIGS[0], records)
        assert row["trials"] == 5 and row["failed"] == 1
        assert row["outcomes"]["sdc"] == 1
        assert row["sdc_rate"] == pytest.approx(1 / 5)
        # caught = detected + crash + hang; not masked = 4
        assert row["detection_coverage"] == pytest.approx(3 / 4)
        # failures injected 2, 3, 1, 4 faults
        assert row["mean_faults_to_failure"] == pytest.approx(2.5)
        assert row["by_site"]["bus"]["sdc"] == 1

    def test_degenerate_denominators_are_none(self):
        all_masked = [self.record("bus", "masked", 1)]
        row = vulnerability_row(CONFIGS[0], all_masked)
        assert row["detection_coverage"] is None
        assert row["mean_faults_to_failure"] is None
        empty = vulnerability_row(CONFIGS[0], [])
        assert empty["sdc_rate"] is None and empty["trials"] == 0


class TestRendering:
    def test_table_carries_every_config_and_totals(self, sequential):
        text = sequential.render()
        for row in sequential.rows:
            assert row["config"] in text
        totals = sequential.outcome_totals
        assert sum(totals.values()) == len(sequential.records)
        assert f"{len(sequential.records)} trials" in text

    def test_to_dict_is_json_ready_and_resume_free(self, sequential):
        document = sequential.to_dict()
        assert json.loads(json.dumps(document)) == document
        assert "resumed" not in document
        assert "discarded_records" not in document


class TestApiFacade:
    def test_sdc_sweep_facade(self):
        result = sdc_sweep(CONFIGS[:1], sites=list(SITES), trials=1,
                           seed=3, entries=12, packets=3)
        assert len(result.records) == len(SITES)
        assert len(result.rows) == 1
        assert result.rows[0]["table"] == "sequential"


class TestCli:
    ARGS = ["sdc", "--table", "sequential", "--buses", "1",
            "--site", "bus", "--site", "trigger", "--trials", "2",
            "--seed", "3", "--entries", "12", "--packets", "3"]

    def test_smoke(self, capsys):
        assert cli_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "SDC%" in out and "seq" in out

    def test_output_json(self, tmp_path, capsys):
        output = str(tmp_path / "sdc.json")
        assert cli_main(self.ARGS + ["--output", output]) == 0
        capsys.readouterr()
        document = json.load(open(output))
        assert document["rows"][0]["table"] == "sequential"
        assert "metrics" in document

    def test_journal_conflict_exits_2(self, tmp_path, capsys):
        journal = tmp_path / "sdc.jsonl"
        journal.write_text('{"v": 1}\n')
        code = cli_main(self.ARGS + ["--journal", str(journal)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    def test_backend_is_not_an_option(self, capsys):
        """Every trial attaches hooks, so the interpreter always runs:
        the sweep has no engine to select."""
        with pytest.raises(SystemExit) as exit_info:
            cli_main(self.ARGS + ["--backend", "compiled"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err
