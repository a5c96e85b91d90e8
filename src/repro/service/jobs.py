"""The campaign service: a persistent, supervised job queue.

Turns the DSE engine from "a script you run" into "a service many users
hit": callers :meth:`~CampaignService.submit` a *plan* (a JSON-ready
sweep description) and get back a job id; the service executes queued
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

Plans::

    {"kind": "table1", "entries": 20, "packets": 4, "hazards": false}
    {"kind": "sweep", "configs": [<config dict>...], "entries": 20,
     "packets": 4, "hazards": false}

Both kinds accept an optional ``"backend"`` key ("interpreter" |
"compiled" | "auto"); pool workers inherit the selection through the
evaluator factory. It is validated at submit time against
:mod:`repro.tta.backends`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dse.campaign import (
    CampaignPolicy,
    CampaignResult,
    config_from_dict,
)
from repro.dse.sweep import SupervisionPolicy, backoff_delay, \
    load_journal, write_atomic
from repro.dse.config import TABLE_KINDS, paper_configurations
from repro.errors import (
    CampaignError,
    ConfigurationError,
    JobNotFoundError,
    JobTimeoutError,
    ServiceError,
)
from repro.faults.seeds import derive_seed, make_rng
from repro.obs import get_registry
from repro.service.cache import EvaluationCache
from repro.service.supervisor import SupervisedCampaignRunner

JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")

PLAN_KINDS = ("table1", "sweep")

#: infrastructure failure classes a job re-run may heal (each retry
#: resumes from the journal, so nothing completed is repeated)
_TRANSIENT_JOB_ERRORS = (OSError, MemoryError)
#: transparent re-runs of a job that hit a transient failure
MAX_JOB_RETRIES = 2


def normalise_plan(plan: Dict[str, object]) -> Dict[str, object]:
    """Validated, canonical-defaults copy of a job plan."""
    if not isinstance(plan, dict):
        raise ServiceError(f"a plan must be a dict, got {type(plan).__name__}")
    kind = plan.get("kind", "table1")
    if kind not in PLAN_KINDS:
        raise ServiceError(
            f"unknown plan kind {kind!r}; choose one of {PLAN_KINDS}")
    out: Dict[str, object] = {
        "kind": kind,
        "entries": int(plan.get("entries", 100)),
        "packets": int(plan.get("packets", 12)),
        "hazards": bool(plan.get("hazards", False)),
        "backend": plan.get("backend"),
    }
    if out["entries"] < 1 or out["packets"] < 1:
        raise ServiceError("entries and packets must be >= 1")
    if out["backend"] is not None:
        from repro.tta.backends import resolve_backend_name
        try:
            resolve_backend_name(str(out["backend"]))
        except ConfigurationError as exc:
            raise ServiceError(str(exc)) from None
        out["backend"] = str(out["backend"])
    if kind == "sweep":
        configs = plan.get("configs")
        if not isinstance(configs, list) or not configs:
            raise ServiceError("a sweep plan needs a non-empty "
                               "'configs' list")
        # round-trip through the dataclass now so a malformed config
        # fails at submit time, not minutes later inside a worker
        out["configs"] = [dataclasses.asdict(config_from_dict(payload))
                          for payload in configs]
    unknown = set(plan) - set(out) - {"kind"}
    if unknown:
        raise ServiceError(f"unknown plan fields: {sorted(unknown)}")
    return out


def plan_configs(plan: Dict[str, object]):
    """The configuration list a plan expands to, in sweep order."""
    if plan["kind"] == "table1":
        return [config for kind in TABLE_KINDS
                for config in paper_configurations(kind)]
    return [config_from_dict(payload) for payload in plan["configs"]]


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
        plan = self.plan
        describe = plan["kind"]
        if plan["kind"] == "sweep":
            describe += f"[{len(plan['configs'])}]"
        progress = ""
        if self.summary:
            progress = (f" evaluated={self.summary.get('evaluated', '?')}"
                        f" cache_hits={self.summary.get('cache_hits', '?')}")
        error = f" error={self.error}" if self.error else ""
        return (f"{self.job_id}  {self.state:<9} attempts={self.attempts} "
                f"plan={describe}{progress}{error}")


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
                 campaign_policy: Optional[CampaignPolicy] = None,
                 seed: int = 0,
                 evaluator_wrapper: Optional[Callable] = None,
                 sleep_fn: Callable[[float], None] = time.sleep):
        if jobs < 1:
            raise ServiceError(f"jobs must be >= 1, got {jobs}")
        self.root = root
        self.jobs = jobs
        self.cache_enabled = cache
        self.supervision = supervision or SupervisionPolicy()
        self.campaign_policy = campaign_policy
        self.seed = seed
        #: chaos/testing seam: wraps the evaluator factory before the
        #: job's evaluator is built from it
        self.evaluator_wrapper = evaluator_wrapper
        self.sleep_fn = sleep_fn
        self._retry_rng = make_rng(derive_seed(seed, "job-retry"))
        self.last_runner: Optional[SupervisedCampaignRunner] = None
        for sub in ("jobs", "journals", "results", "cache"):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

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
        seq = 1 + max((job.seq for job in self.list_jobs()), default=0)
        digest = hashlib.sha256(json.dumps(
            plan, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()[:8]
        job = JobRecord(job_id=f"job-{seq:04d}-{digest}", plan=plan,
                        seq=seq)
        self._save(job)
        self._count_state("queued")
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
        total = len(plan_configs(job.plan))
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
        self._count_state("cancelled")
        return job

    # -- recovery -----------------------------------------------------------------

    def recover(self) -> List[str]:
        """Re-queue jobs a dead service instance left ``running``.

        Their journals are intact (append-only, fsync'd), so the re-run
        resumes: completed evaluations are replayed, not repeated, and
        the final result is byte-identical to an uninterrupted run.
        """
        recovered = []
        registry = get_registry()
        for job in self.list_jobs():
            if job.state == "running":
                job.state = "queued"
                self._save(job)
                recovered.append(job.job_id)
                if registry.enabled:
                    registry.counter(
                        "service_recovered_jobs_total",
                        "running jobs re-queued after a service "
                        "crash/restart").inc()
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
        registry = get_registry()
        job.state = "running"
        job.attempts += 1
        job.error = None
        self._save(job)
        self._count_state("running")
        if registry.enabled:
            registry.gauge("service_active_jobs",
                           "jobs currently executing").inc()
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
                    if registry.enabled:
                        registry.counter(
                            "service_job_retries_total",
                            "transparent job re-runs after transient "
                            "infrastructure failures").inc()
                    self.sleep_fn(backoff_delay(retries, self._retry_rng))
            self._finish(job, campaign)
        except JobTimeoutError as exc:
            self._fail(job, f"timeout: {exc}")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            self._fail(job, f"{type(exc).__name__}: {exc}")
        finally:
            if registry.enabled:
                registry.gauge("service_active_jobs",
                               "jobs currently executing").dec()
        return job

    def _run_campaign(self, job: JobRecord) -> CampaignResult:
        plan = job.plan
        runner = self._make_runner(job)
        self.last_runner = runner
        return runner.run(plan_configs(plan))

    def _make_runner(self, job: JobRecord) -> SupervisedCampaignRunner:
        from functools import partial

        from repro.dse.evaluator import ArchitectureEvaluator

        plan = job.plan
        factory = partial(ArchitectureEvaluator,
                          table_entries=plan["entries"],
                          packet_batch=plan["packets"],
                          detect_hazards=plan["hazards"],
                          backend=plan.get("backend"))
        if self.evaluator_wrapper is not None:
            factory = self.evaluator_wrapper(factory)
        cache = None
        if self.cache_enabled:
            namespace = {"entries": plan["entries"],
                         "packets": plan["packets"],
                         "hazards": plan["hazards"]}
            if plan.get("backend") is not None:
                # partition per engine so a fast-path regression can
                # never poison the interpreter's cached baseline (the
                # default namespace is preserved for legacy plans)
                namespace["backend"] = plan["backend"]
            cache = EvaluationCache(
                os.path.join(self.root, "cache"), namespace=namespace)
        journal = self._journal_path(job.job_id)
        return SupervisedCampaignRunner(
            factory(), jobs=self.jobs, journal_path=journal,
            resume=os.path.exists(journal) and os.path.getsize(journal) > 0,
            policy=self.campaign_policy, supervision=self.supervision,
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
        self._count_state("completed")

    def _fail(self, job: JobRecord, error: str) -> None:
        job.state = "failed"
        job.error = error
        self._save(job)
        self._count_state("failed")

    # -- internals ----------------------------------------------------------------

    def _save(self, job: JobRecord) -> None:
        write_atomic(self._job_path(job.job_id),
                     json.dumps(job.to_dict(), indent=2, sort_keys=True)
                     + "\n")

    @staticmethod
    def _count_state(state: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_jobs_total",
                "job state transitions", ("state",)).inc(state=state)
