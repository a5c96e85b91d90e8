"""Campaign service: queue lifecycle, supervision, recovery, CLI."""

import json
import os
from functools import partial

import pytest

from repro import api
from repro.dse import (
    ArchitectureEvaluator,
    CampaignRunner,
    sweep,
    table1_configurations,
)
from repro.errors import (
    JobNotFoundError,
    JobTimeoutError,
    ServiceError,
)
from repro.service import (
    CampaignService,
    SupervisedCampaignRunner,
    SupervisionPolicy,
    normalise_plan,
)

factory = partial(ArchitectureEvaluator, table_entries=10, packet_batch=2)

PLAN = {"entries": 10, "packets": 2}


@pytest.fixture(scope="module")
def baseline():
    """Clean sequential ground truth for the table1 plan."""
    return CampaignRunner(factory()).run(table1_configurations())


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("sleep_fn", lambda seconds: None)
    return CampaignService(str(tmp_path / "svc"), **kwargs)


class TestPlans:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError):
            normalise_plan({"kind": "quantum"})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServiceError):
            normalise_plan({"kind": "table1", "entires": 10})  # typo

    def test_non_positive_sizes_rejected(self):
        for plan in ({"entries": 0}, {"packets": 0}):
            with pytest.raises(ServiceError):
                normalise_plan(plan)

    def test_sweep_plans_are_refused(self):
        with pytest.raises(ServiceError, match="'sweep' kind was removed"):
            normalise_plan({"kind": "sweep",
                            "configs": [{"bus_count": 1}]})

    def test_table1_plan_expands_to_nine_configs(self):
        assert len(table1_configurations(
            normalise_plan(PLAN)["kinds"])) == 9

    def test_plan_is_table1_campaign_keywords_with_defaults(self):
        plan = normalise_plan({"entries": 10, "kinds": ("cam",)})
        defaults = api.table1_campaign.__kwdefaults__
        assert set(plan) == set(defaults) - {"jobs", "journal", "resume"}
        assert plan["entries"] == 10 and plan["kinds"] == ["cam"]
        assert plan["packets"] == defaults["packets"]

    def test_legacy_plan_canonicalises_like_the_new_form(self):
        assert normalise_plan({"kind": "table1", "entries": 10,
                               "packets": 2, "hazards": False,
                               "backend": None}) \
            == normalise_plan({"entries": 10, "packets": 2})


class TestQueueLifecycle:
    def test_submit_run_fetch_matches_sequential(self, tmp_path, baseline):
        service = make_service(tmp_path)
        job_id = service.submit(PLAN)
        assert service.status(job_id).state == "queued"
        [job] = service.run_pending()
        assert job.state == "completed"
        document = service.fetch(job_id)
        assert document["result"]["records"] == baseline.records
        assert document["render"] == baseline.render()

    def test_job_ids_are_deterministic(self, tmp_path):
        a = make_service(tmp_path / "a").submit(PLAN)
        b = make_service(tmp_path / "b").submit(PLAN)
        assert a == b and a.startswith("job-0001-")

    def test_poll_reports_progress_from_the_journal(self, tmp_path):
        service = make_service(tmp_path)
        job_id = service.submit(PLAN)
        assert service.poll(job_id)["evaluations_done"] == 0
        service.run_pending()
        progress = service.poll(job_id)
        assert progress["state"] == "completed"
        assert progress["evaluations_done"] == 9
        assert progress["evaluations_total"] == 9

    def test_fetch_before_completion_raises(self, tmp_path):
        service = make_service(tmp_path)
        job_id = service.submit(PLAN)
        with pytest.raises(ServiceError):
            service.fetch(job_id)

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobNotFoundError):
            make_service(tmp_path).status("job-9999-cafecafe")

    def test_cancel_only_queued_jobs(self, tmp_path):
        service = make_service(tmp_path)
        job_id = service.submit(PLAN)
        assert service.cancel(job_id).state == "cancelled"
        with pytest.raises(ServiceError):
            service.cancel(job_id)

    def test_jobs_execute_in_submission_order(self, tmp_path):
        service = make_service(tmp_path)
        first = service.submit(PLAN)
        second = service.submit({**PLAN, "entries": 12})
        executed = service.run_pending(max_jobs=1)
        assert [job.job_id for job in executed] == [first]
        assert service.status(second).state == "queued"


class TestCacheAcrossJobs:
    def test_second_job_is_all_cache_hits_and_byte_identical(
            self, tmp_path, baseline):
        service = make_service(tmp_path)
        cold_id = service.submit(PLAN)
        warm_id = service.submit(PLAN)
        service.run_pending()
        cold = service.fetch(cold_id)
        warm = service.fetch(warm_id)
        assert cold["service"]["cache_hits"] == 0
        assert warm["service"]["cache_hits"] == 9
        assert warm["result"]["records"] == cold["result"]["records"] \
            == baseline.records
        assert warm["render"] == cold["render"] == baseline.render()

    def test_no_cache_flag_disables_reuse(self, tmp_path):
        service = make_service(tmp_path, cache=False)
        service.submit(PLAN)
        warm_id = service.submit(PLAN)
        service.run_pending()
        assert service.fetch(warm_id)["service"]["cache_hits"] == 0


class TestPlansRunAsTable1Campaigns:
    def test_non_default_keywords_run_as_the_api_call(self, tmp_path):
        keywords = {"entries": 10, "packets": 2, "kinds": ["cam"],
                    "prefixes": 30, "seed": 7}
        service = make_service(tmp_path)
        job_id = service.submit(keywords)
        [job] = service.run_pending()
        assert job.state == "completed"
        _, campaign = api.table1_campaign(**keywords)
        document = service.fetch(job_id)
        assert document["result"]["records"] == campaign.records
        assert document["render"] == campaign.render()
        assert document["plan"] == normalise_plan(keywords)

    def test_legacy_job_document_runs(self, tmp_path, baseline):
        service = make_service(tmp_path)
        _write_job(service, "job-0001-aa903947", seq=1, plan={
            "kind": "table1", "entries": 10, "packets": 2,
            "hazards": False, "backend": None})
        [job] = service.run_pending()
        assert job.state == "completed"
        document = service.fetch(job.job_id)
        assert document["result"]["records"] == baseline.records
        assert document["render"] == baseline.render()

    def test_sweep_job_fails_alone(self, tmp_path):
        service = make_service(tmp_path)
        _write_job(service, "job-0001-0badc0de", seq=1, plan={
            "kind": "sweep", "entries": 10, "packets": 2,
            "configs": [{"bus_count": 1, "table_kind": "cam"}]})
        next_id = service.submit({**PLAN, "kinds": ["cam"]})
        sweep_job, next_job = service.run_pending()
        assert sweep_job.state == "failed"
        assert "'sweep' kind was removed" in sweep_job.error
        assert next_job.job_id == next_id and next_job.state == "completed"

    def test_unknown_keyword_rejected_at_submit(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ServiceError,
                           match=r"unknown plan keywords \['pakets'\]"):
            service.submit({"entries": 10, "pakets": 2})
        assert not os.path.exists(service.root)

    def test_cache_is_shared_across_kinds_only(self, tmp_path):
        service = make_service(tmp_path)
        base = {**PLAN, "kinds": ["sequential"]}

        def cache_hits(plan):
            job_id = service.submit(plan)
            service.run_pending()
            return service.fetch(job_id)["service"]["cache_hits"]
        assert cache_hits(base) == 0
        # kinds only picks configurations: the overlap is served
        assert cache_hits({**PLAN, "kinds": ["sequential", "cam"]}) == 3
        budget = 2 * api.DEFAULT_EVALUATION_MAX_CYCLES
        for change in ({"entries": 12}, {"prefixes": 30},
                       {"cycle_budget": budget}):
            assert cache_hits({**base, **change}) == 0, change


def _write_job(service, job_id, *, seq, plan):
    """A queued job document as an older service left it on disk."""
    for sub in ("jobs", "journals", "results", "cache"):
        os.makedirs(os.path.join(service.root, sub), exist_ok=True)
    document = {"job_id": job_id, "plan": plan, "state": "queued",
                "seq": seq, "attempts": 0, "error": None, "summary": {}}
    with open(service._job_path(job_id), "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestRecovery:
    def test_recover_requeues_running_jobs_and_resumes(
            self, tmp_path, baseline):
        service = make_service(tmp_path)
        job_id = service.submit(PLAN)
        # simulate a service that died mid-job: a journalled prefix and
        # a job document stuck in "running"
        job = service.status(job_id)
        runner = service._make_runner(job)
        runner.run(table1_configurations(job.plan["kinds"])[:4])
        job.state = "running"
        service._save(job)

        restarted = make_service(tmp_path)
        assert restarted.recover() == [job_id]
        assert restarted.status(job_id).state == "queued"
        restarted.run_pending()
        document = restarted.fetch(job_id)
        assert document["result"]["resumed"] == 4
        assert document["result"]["records"] == baseline.records
        assert document["render"] == baseline.render()

    def test_recover_is_a_noop_on_a_clean_root(self, tmp_path):
        service = make_service(tmp_path)
        service.submit(PLAN)
        assert service.recover() == []


class TestFailureContainment:
    def test_failing_job_is_recorded_not_raised(self, tmp_path):
        service = make_service(tmp_path)
        service.evaluator_wrapper = lambda inner: _raising_factory
        job_id = service.submit(PLAN)
        [job] = service.run_pending()
        assert job.state == "failed"
        assert "RuntimeError" in job.error
        with pytest.raises(ServiceError):
            service.fetch(job_id)

    def test_transient_errors_get_retried_then_succeed(self, tmp_path,
                                                       baseline):
        slept = []
        service = make_service(tmp_path, sleep_fn=slept.append)
        flaky = _FlakyOnce(str(tmp_path / "flaky.sentinel"))
        service.evaluator_wrapper = lambda inner: flaky.wrap(inner)
        job_id = service.submit(PLAN)
        [job] = service.run_pending()
        assert job.state == "completed"
        assert job.attempts == 2
        # the retry waits the engine's first backoff step
        [delay] = slept
        assert sweep.BACKOFF_BASE_SECONDS <= delay \
            <= sweep.BACKOFF_BASE_SECONDS * (1 + sweep.BACKOFF_JITTER)
        assert service.fetch(job_id)["result"]["records"] \
            == baseline.records


def _raising_factory():
    raise RuntimeError("evaluator construction exploded")


class _FlakyOnce:
    """Factory wrapper whose first construction raises OSError (a
    transient infrastructure failure), then behaves normally."""

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def wrap(self, inner):
        sentinel = self.sentinel

        def build():
            if not os.path.exists(sentinel):
                with open(sentinel, "w", encoding="utf-8") as handle:
                    handle.write("tripped\n")
                raise OSError("transient: spool volume hiccup")
            return inner()
        return build


class TestJobDeadline:
    def test_deadline_exceeded_raises_but_keeps_the_journal(
            self, tmp_path, baseline):
        clock = _FakeClock()
        journal = tmp_path / "journal.jsonl"
        runner = SupervisedCampaignRunner(
            factory(), jobs=1, journal_path=str(journal),
            supervision=SupervisionPolicy(job_timeout_seconds=5.0),
            sleep_fn=lambda seconds: None, time_fn=clock)
        configs = table1_configurations()
        clock.advance_per_call = 2.0  # 3 calls in, the deadline passes
        with pytest.raises(JobTimeoutError):
            runner.run(configs)
        partial_records = len(journal.read_text().splitlines())
        assert 0 < partial_records < len(configs)

        resumed = SupervisedCampaignRunner(
            factory(), jobs=1, journal_path=str(journal), resume=True,
            supervision=SupervisionPolicy(job_timeout_seconds=None),
            sleep_fn=lambda seconds: None)
        campaign = resumed.run(configs)
        assert campaign.resumed == partial_records
        assert campaign.records == baseline.records

    def test_service_marks_timed_out_jobs_failed(self, tmp_path):
        service = make_service(
            tmp_path,
            supervision=SupervisionPolicy(job_timeout_seconds=0.0))
        job_id = service.submit(PLAN)
        [job] = service.run_pending()
        assert job.state == "failed"
        assert job.error.startswith("timeout:")
        # the partial journal survives for a future resubmission
        assert os.path.exists(service._journal_path(job_id))


class _FakeClock:
    def __init__(self):
        self.now = 0.0
        self.advance_per_call = 0.0

    def __call__(self):
        self.now += self.advance_per_call
        return self.now


class TestBackoff:
    """The sweep engine's policy after each broken pool generation."""

    def test_backoff_grows_exponentially_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(sweep, "BACKOFF_BASE_SECONDS", 0.1)
        monkeypatch.setattr(sweep, "BACKOFF_CAP_SECONDS", 0.35)
        monkeypatch.setattr(sweep, "BACKOFF_JITTER", 0.0)
        slept = []
        runner = SupervisedCampaignRunner(factory(), jobs=2,
                                          sleep_fn=slept.append)
        for _ in range(4):
            runner._degrade()
        assert slept == [0.1, 0.2, 0.35, 0.35]

    def test_jitter_is_seeded_and_bounded(self, monkeypatch):
        monkeypatch.setattr(sweep, "BACKOFF_BASE_SECONDS", 0.1)
        monkeypatch.setattr(sweep, "BACKOFF_CAP_SECONDS", 1.0)
        monkeypatch.setattr(sweep, "BACKOFF_JITTER", 0.5)

        def delays(seed):
            slept = []
            runner = SupervisedCampaignRunner(
                factory(), jobs=2, seed=seed,
                supervision=SupervisionPolicy(min_jobs=2),
                sleep_fn=slept.append)
            for _ in range(3):
                runner._degrade()
            return slept
        assert delays(1) == delays(1)
        assert delays(1) != delays(2)
        for base, delay in zip([0.1, 0.2, 0.4], delays(3)):
            assert base <= delay <= base * 1.5

    def test_pool_never_shrinks_below_min_jobs(self):
        runner = SupervisedCampaignRunner(
            factory(), jobs=3,
            supervision=SupervisionPolicy(min_jobs=2),
            sleep_fn=lambda seconds: None)
        for _ in range(4):
            runner._degrade()
        assert runner.jobs == 2
        assert runner.pool_shrinks == 1


class TestCli:
    def test_submit_serve_jobs_round_trip(self, tmp_path, capsys,
                                          baseline):
        from repro.cli import main
        root = str(tmp_path / "svc")
        assert main(["submit", "--root", root, "--entries", "10",
                     "--packets", "2"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["serve", "--root", root]) == 0
        assert job_id in capsys.readouterr().out
        out = tmp_path / "result.json"
        assert main(["jobs", "--root", root, "--fetch", job_id,
                     "--output", str(out)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == baseline.render()
        document = json.loads(out.read_text())
        assert document["result"]["records"] == baseline.records
        assert "metrics" in document

    def test_jobs_poll_emits_json(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / "svc")
        main(["submit", "--root", root, "--entries", "10",
              "--packets", "2"])
        job_id = capsys.readouterr().out.strip()
        assert main(["jobs", "--root", root, "--poll", job_id]) == 0
        progress = json.loads(capsys.readouterr().out)
        assert progress["state"] == "queued"
        assert progress["evaluations_total"] == 9

    def test_submit_rejects_bad_plan_json(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["submit", "--root", str(tmp_path / "svc"),
                     "--plan", "{not json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, refusal", [
        (["jobs"], "no campaign spool"),
        (["jobs", "--poll", "job-0001-cafecafe"], "no job"),
        (["jobs", "--fetch", "job-0001-cafecafe"], "no job"),
        (["serve"], "no campaign spool"),
    ], ids=" ".join)
    def test_read_commands_refuse_a_missing_spool(self, tmp_path, capsys,
                                                  argv, refusal):
        from repro.cli import main
        root = str(tmp_path / "typo-spool")
        assert main(argv[:1] + ["--root", root] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert refusal in err and root in err
        assert not os.path.exists(root)

    def test_serve_reports_failed_jobs_with_exit_3(self, tmp_path,
                                                   capsys):
        from repro.cli import main
        root = str(tmp_path / "svc")
        assert main(["submit", "--root", root, "--plan",
                     json.dumps({"kind": "table1", "entries": 10,
                                 "packets": 2})]) == 0
        capsys.readouterr()
        # a queued job whose plan was damaged on disk after validation
        service = CampaignService(root)
        [job] = service.list_jobs()
        job.plan["kind"] = "quantum"
        service._save(job)
        assert main(["serve", "--root", root]) == 3
        capsys.readouterr()
