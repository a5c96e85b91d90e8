"""The campaign service: a persistent, supervised job queue.

Turns the DSE engine from "a script you run" into "a service many users
hit": callers :meth:`~CampaignService.submit` a *plan* (the keywords of
a Table-1 run, below) and get back a job id; the service executes queued
jobs under supervision (:mod:`repro.service.supervisor`) with an
integrity-checked evaluation cache (:mod:`repro.service.cache`), and
callers :meth:`~CampaignService.poll` progress and
:meth:`~CampaignService.fetch` results.

Everything is spooled to a *service root* directory with fsync'd atomic
writes, so the service itself obeys the same crash contract as its
campaigns::

    root/jobs/<job_id>.json      one atomic state document per job
    root/journals/<job_id>.jsonl the job's crash-safe campaign journal
    root/results/<job_id>.json   the completed result document
    root/cache/                  the shared evaluation cache

A service process that dies mid-job leaves the job in state ``running``
with its journal intact; :meth:`~CampaignService.recover` (run at every
service start) re-queues such jobs, and their re-execution *resumes*
from the journal — the fetched result is byte-identical to an
uninterrupted run. Because the queue lives on disk, ``submit`` and the
serve loop may run in different processes (the CLI's ``submit`` /
``serve`` subcommands).

A plan is the keyword dict of :func:`repro.api.table1_campaign`
without the run-mode keywords the service owns (``jobs``, ``journal``,
``resume``); the keywords it leaves out take that function's defaults::

    {"entries": 20, "packets": 4, "prefixes": 1000}

The first :meth:`~CampaignService.submit` creates the spool; every other
operation refuses a root that holds none. A plan stored in the older
``{"kind": "table1", ...}`` form still runs; the ``"sweep"`` kind was
removed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dse.campaign import CampaignResult, table1_workload
from repro.dse.config import table1_configurations
from repro.dse.sweep import SupervisionPolicy, backoff_delay, \
    load_journal, write_atomic
from repro.errors import (
    CampaignError,
    ConfigurationError,
    JobNotFoundError,
    JobTimeoutError,
    ServiceError,
)
from repro.faults.seeds import derive_seed, make_rng
from repro.obs.catalogue import SERVICE_ACTIVE_JOBS, SERVICE_JOB_RETRIES, \
    SERVICE_JOBS, SERVICE_RECOVERED_JOBS
from repro.service.cache import EvaluationCache
from repro.service.supervisor import SupervisedCampaignRunner

JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")

#: the keywords of :func:`repro.api.table1_campaign` a service owns
_RUN_MODE = ("jobs", "journal", "resume")

#: infrastructure failure classes a job re-run may heal (each retry
#: resumes from the journal, so nothing completed is repeated)
_TRANSIENT_JOB_ERRORS = (OSError, MemoryError)
#: transparent re-runs of a job that hit a transient failure
MAX_JOB_RETRIES = 2


def normalise_plan(plan: Dict[str, object]) -> Dict[str, object]:
    """The canonical plan: every keyword of
    :func:`repro.api.table1_campaign` a job may set, defaults filled in,
    checked by the same constructor the command line runs."""
    from repro.api import table1_campaign

    if not isinstance(plan, dict):
        raise ServiceError(f"a plan must be a dict, got {type(plan).__name__}")
    plan = dict(plan)
    # plans stored before plans were keyword dicts name their kind
    kind = plan.pop("kind", "table1")
    if kind != "table1":
        raise ServiceError(
            f"plan kind {kind!r} is not supported: the 'sweep' kind was "
            f"removed, and a plan is the keywords of api.table1_campaign")
    defaults = {keyword: value for keyword, value
                in table1_campaign.__kwdefaults__.items()
                if keyword not in _RUN_MODE}
    unknown = sorted(set(plan) - set(defaults))
    if unknown:
        raise ServiceError(f"unknown plan keywords {unknown}; a plan takes "
                           f"{sorted(defaults)}")
    plan = {**defaults, **plan}
    try:
        plan["kinds"] = list(plan["kinds"])
        table1_workload(**_workload(plan))
        table1_configurations(plan["kinds"])
    except (ConfigurationError, TypeError) as exc:
        raise ServiceError(f"invalid plan: {exc}") from None
    return plan


def _workload(plan: Dict[str, object]) -> Dict[str, object]:
    """What decides how each configuration of *plan* evaluates: every
    keyword but ``kinds``, which only picks the configurations."""
    return {keyword: value for keyword, value in plan.items()
            if keyword != "kinds"}


@dataclass
class JobRecord:
    """One job's durable state (the ``jobs/<id>.json`` document)."""

    job_id: str
    plan: Dict[str, object]
    state: str = "queued"
    seq: int = 0
    attempts: int = 0
    error: Optional[str] = None
    #: summary of the completed run (evaluated/quarantined/cache_hits/...)
    summary: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id, "plan": self.plan, "state": self.state,
            "seq": self.seq, "attempts": self.attempts,
            "error": self.error, "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "JobRecord":
        return cls(job_id=payload["job_id"], plan=payload["plan"],
                   state=payload["state"], seq=payload.get("seq", 0),
                   attempts=payload.get("attempts", 0),
                   error=payload.get("error"),
                   summary=payload.get("summary", {}))

    def render(self) -> str:
        progress = ""
        if self.summary:
            progress = (f" evaluated={self.summary.get('evaluated', '?')}"
                        f" cache_hits={self.summary.get('cache_hits', '?')}")
        error = f" error={self.error}" if self.error else ""
        return (f"{self.job_id}  {self.state:<9} attempts={self.attempts}"
                f"{progress}{error}")


class CampaignService:
    """Supervised, cached, crash-recoverable campaign execution.

    One instance per *root*; many instances (processes) may share a root
    over time — the spool directory is the source of truth, every state
    transition is an fsync'd atomic write, and job execution is
    single-flight per service instance (``run_pending`` drains the queue
    in submission order).
    """

    def __init__(self, root: str, *,
                 jobs: int = 1,
                 cache: bool = True,
                 supervision: Optional[SupervisionPolicy] = None,
                 seed: int = 0,
                 evaluator_wrapper: Optional[Callable] = None,
                 sleep_fn: Callable[[float], None] = time.sleep):
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        self.root = root
        self.jobs = jobs
        self.cache_enabled = cache
        self.supervision = supervision or SupervisionPolicy()
        self.seed = seed
        #: chaos/testing seam: wraps the evaluator factory before the
        #: job's evaluator is built from it
        self.evaluator_wrapper = evaluator_wrapper
        self.sleep_fn = sleep_fn
        self._retry_rng = make_rng(derive_seed(seed, "job-retry"))
        self.last_runner: Optional[SupervisedCampaignRunner] = None

    # -- paths --------------------------------------------------------------------

    def _job_path(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", f"{job_id}.json")

    def _journal_path(self, job_id: str) -> str:
        return os.path.join(self.root, "journals", f"{job_id}.jsonl")

    def _result_path(self, job_id: str) -> str:
        return os.path.join(self.root, "results", f"{job_id}.json")

    # -- queue operations ---------------------------------------------------------

    def submit(self, plan: Dict[str, object]) -> str:
        """Validate *plan*, enqueue it, and return its job id.

        Ids are deterministic in (queue position, plan content):
        ``job-NNNN-<plan digest>``.
        """
        plan = normalise_plan(plan)
        for sub in ("jobs", "journals", "results", "cache"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)
        seq = 1 + max((job.seq for job in self.list_jobs()), default=0)
        digest = hashlib.sha256(json.dumps(
            plan, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()[:8]
        job = JobRecord(job_id=f"job-{seq:04d}-{digest}", plan=plan,
                        seq=seq)
        self._save(job)
        SERVICE_JOBS.inc(state="queued")
        return job.job_id

    def status(self, job_id: str) -> JobRecord:
        path = self._job_path(job_id)
        try:
            with open(path, encoding="utf-8") as handle:
                return JobRecord.from_dict(json.load(handle))
        except FileNotFoundError:
            raise JobNotFoundError(f"no job {job_id!r} under {self.root}") \
                from None

    def list_jobs(self) -> List[JobRecord]:
        directory = os.path.join(self.root, "jobs")
        if not os.path.isdir(directory):
            raise ServiceError(f"no campaign spool at {self.root}; "
                               f"'submit' creates one")
        jobs = []
        for name in os.listdir(directory):
            if name.endswith(".json"):
                jobs.append(self.status(name[:-len(".json")]))
        return sorted(jobs, key=lambda job: job.seq)

    def poll(self, job_id: str) -> Dict[str, object]:
        """Point-in-time progress: state plus journalled/total counts.

        Readable while the job runs (possibly in another process) — the
        journal is append-only, so a concurrent read sees a prefix.
        """
        job = self.status(job_id)
        total = len(
            table1_configurations(normalise_plan(job.plan)["kinds"]))
        done = 0
        journal = self._journal_path(job_id)
        if os.path.exists(journal):
            try:
                records, _ = load_journal(journal)
                done = len({record["key"] for record in records})
            except CampaignError:
                done = 0  # damaged journal; the runner will diagnose it
        return {
            "job_id": job_id, "state": job.state, "attempts": job.attempts,
            "evaluations_total": total,
            "evaluations_done": min(done, total),
            "error": job.error,
        }

    def fetch(self, job_id: str) -> Dict[str, object]:
        """The completed job's result document (raises until complete)."""
        job = self.status(job_id)
        if job.state != "completed":
            raise ServiceError(
                f"{job_id} is {job.state}, not completed; poll until it "
                f"finishes" + (f" (error: {job.error})" if job.error
                               else ""))
        with open(self._result_path(job_id), encoding="utf-8") as handle:
            return json.load(handle)

    def cancel(self, job_id: str) -> JobRecord:
        job = self.status(job_id)
        if job.state != "queued":
            raise ServiceError(
                f"only queued jobs can be cancelled; {job_id} is "
                f"{job.state}")
        job.state = "cancelled"
        self._save(job)
        SERVICE_JOBS.inc(state="cancelled")
        return job

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> List[str]:
        """Re-queue jobs a dead service instance left ``running``.

        Their journals are intact (append-only, fsync'd), so the re-run
        resumes: completed evaluations are replayed, not repeated, and
        the final result is byte-identical to an uninterrupted run.
        """
        recovered = []
        for job in self.list_jobs():
            if job.state == "running":
                job.state = "queued"
                self._save(job)
                recovered.append(job.job_id)
                SERVICE_RECOVERED_JOBS.inc()
        return recovered

    # -- execution ----------------------------------------------------------------

    def run_pending(self, max_jobs: Optional[int] = None) -> List[JobRecord]:
        """Execute queued jobs in submission order; returns their final
        records. Never raises for a failing job — failures are recorded
        on the job itself."""
        executed = []
        for job in self.list_jobs():
            if job.state != "queued":
                continue
            if max_jobs is not None and len(executed) >= max_jobs:
                break
            executed.append(self._execute(job))
        return executed

    def _execute(self, job: JobRecord) -> JobRecord:
        job.state = "running"
        job.attempts += 1
        job.error = None
        self._save(job)
        SERVICE_JOBS.inc(state="running")
        SERVICE_ACTIVE_JOBS.inc()
        try:
            retries = 0
            while True:
                try:
                    campaign = self._run_campaign(job)
                    break
                except _TRANSIENT_JOB_ERRORS:
                    if retries >= MAX_JOB_RETRIES:
                        raise
                    retries += 1
                    job.attempts += 1
                    self._save(job)
                    SERVICE_JOB_RETRIES.inc()
                    self.sleep_fn(backoff_delay(retries, self._retry_rng))
            self._finish(job, campaign)
        except JobTimeoutError as exc:
            self._fail(job, f"timeout: {exc}")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._fail(job, f"{type(exc).__name__}: {exc}")
        finally:
            SERVICE_ACTIVE_JOBS.inc(-1)
        return job

    def _run_campaign(self, job: JobRecord) -> CampaignResult:
        runner = self._make_runner(job)
        self.last_runner = runner
        return runner.run(
            table1_configurations(normalise_plan(job.plan)["kinds"]))

    def _make_runner(self, job: JobRecord) -> SupervisedCampaignRunner:
        workload = _workload(normalise_plan(job.plan))
        factory, policy = table1_workload(**workload)
        if self.evaluator_wrapper is not None:
            factory = self.evaluator_wrapper(factory)
        cache = None
        if self.cache_enabled:
            cache = EvaluationCache(os.path.join(self.root, "cache"),
                                    namespace=workload)
        journal = self._journal_path(job.job_id)
        return SupervisedCampaignRunner(
            factory(), jobs=self.jobs, journal_path=journal,
            resume=os.path.exists(journal) and os.path.getsize(journal) > 0,
            policy=policy, supervision=self.supervision,
            cache=cache, seed=self.seed, sleep_fn=self.sleep_fn)

    def _finish(self, job: JobRecord, campaign: CampaignResult) -> None:
        runner = self.last_runner
        document = {
            "job_id": job.job_id,
            "plan": job.plan,
            "result": campaign.to_dict(),
            "render": campaign.render(),
            "service": {
                "attempts": job.attempts,
                "cache_hits": runner.cache_hits,
                "cache_corrupt": (runner.cache.corrupt
                                  if runner.cache else 0),
                "worker_crashes": runner.worker_crashes,
                "stalls": runner.stalls,
                "pool_shrinks": runner.pool_shrinks,
                "final_pool_size": runner.jobs,
            },
        }
        write_atomic(self._result_path(job.job_id),
                     json.dumps(document, indent=2, sort_keys=True) + "\n")
        job.state = "completed"
        job.summary = {
            "evaluated": len(campaign.results),
            "quarantined": len(campaign.quarantined),
            "resumed": campaign.resumed,
            "cache_hits": runner.cache_hits,
            "worker_crashes": runner.worker_crashes,
            "stalls": runner.stalls,
        }
        self._save(job)
        SERVICE_JOBS.inc(state="completed")

    def _fail(self, job: JobRecord, error: str) -> None:
        job.state = "failed"
        job.error = error
        self._save(job)
        SERVICE_JOBS.inc(state="failed")

    # -- internals ----------------------------------------------------------------

    def _save(self, job: JobRecord) -> None:
        write_atomic(self._job_path(job.job_id),
                     json.dumps(job.to_dict(), indent=2, sort_keys=True)
                     + "\n")
