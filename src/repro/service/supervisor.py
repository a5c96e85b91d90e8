"""Supervised campaign execution: heartbeats, deadlines, degradation.

:class:`SupervisedCampaignRunner` extends the campaign runner with the
control-plane duties a long-lived service owes its jobs — the split the
fast-programmable-router literature draws between a fast data path and a
resilient management plane:

* **heartbeats** — a per-worker liveness map refreshed on every chunk
  completion; if *no* chunk completes within the heartbeat deadline the
  pool is declared stalled, its workers are terminated (SIGTERM — they
  are stuck, so a join would block forever), and the in-flight work is
  resolved through the existing single-config probe machinery;
* **probe deadlines** — a probe that also stalls is terminated and its
  configuration quarantined as :class:`~repro.errors.WorkerStallError`,
  so one pathological configuration cannot wedge the service;
* **graceful degradation** — every broken pool generation (crash or
  stall) shrinks the pool by one worker down to ``min_jobs``, trading
  throughput for survival instead of aborting;
* **capped exponential backoff + jitter** — the pause before refilling
  a broken pool grows exponentially to a cap, with seeded jitter so a
  fleet of services does not refill in lockstep (and so tests replay
  deterministically);
* **per-job wall-clock deadline** — exceeded deadlines raise
  :class:`~repro.errors.JobTimeoutError` *after* persisting the record
  in hand: the journal keeps everything the job earned, so a retry
  resumes instead of restarting;
* **evaluation cache** — before dispatch, every configuration is looked
  up in an integrity-checked :class:`~repro.service.cache.EvaluationCache`;
  verified hits are seeded into the journal as if evaluated (byte-
  identical output), fresh successes are written back, and corrupt
  entries are quarantined and transparently recomputed.

With no supervision policy and no cache this class behaves exactly like
:class:`~repro.dse.campaign.CampaignRunner`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.dse.campaign import (
    CampaignPolicy,
    CampaignResult,
    CampaignRunner,
    config_key,
)
from repro.dse.config import ArchitectureConfiguration
from repro.dse.protocols import Evaluator
from repro.errors import JobTimeoutError
from repro.faults.seeds import derive_seed, make_rng
from repro.obs import get_registry
from repro.service.cache import EvaluationCache


@dataclass(frozen=True)
class SupervisionPolicy:
    """Liveness, retry, and degradation policy for supervised sweeps."""

    #: longest tolerated silence (no chunk completion) before the pool
    #: is declared stalled; None disables stall detection
    heartbeat_seconds: Optional[float] = 30.0
    #: wall-clock ceiling for a single-config probe (falls back to
    #: 2 x heartbeat when None and heartbeats are on)
    probe_timeout_seconds: Optional[float] = None
    #: wall-clock ceiling for one whole job; None = unlimited
    job_timeout_seconds: Optional[float] = None
    #: backoff before refilling a broken pool: min(cap, base * 2^(n-1))
    #: plus up to ``jitter`` of itself, seeded
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    jitter: float = 0.25
    #: shrink the pool by one worker after each broken generation, but
    #: never below this floor
    min_jobs: int = 1
    #: transparent job re-runs the service may attempt on transient
    #: infrastructure failures (the journal makes each retry a resume)
    max_job_retries: int = 2

    def effective_probe_timeout(self) -> Optional[float]:
        if self.probe_timeout_seconds is not None:
            return self.probe_timeout_seconds
        if self.heartbeat_seconds is not None:
            return 2.0 * self.heartbeat_seconds
        return None


class SupervisedCampaignRunner(CampaignRunner):
    """A pool-backed :class:`CampaignRunner` under service supervision.

    *sleep_fn* / *time_fn* are injectable so tests replay backoff and
    deadline behaviour without real waiting; *seed* pins the backoff
    jitter stream.
    """

    def __init__(self, evaluator: Evaluator,
                 jobs: int = 2,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 policy: Optional[CampaignPolicy] = None,
                 chunk_size: Optional[int] = None,
                 supervision: Optional[SupervisionPolicy] = None,
                 cache: Optional[EvaluationCache] = None,
                 seed: int = 0,
                 sleep_fn: Callable[[float], None] = time.sleep,
                 time_fn: Callable[[], float] = time.monotonic):
        super().__init__(evaluator, journal_path=journal_path,
                         resume=resume, policy=policy, jobs=jobs,
                         chunk_size=chunk_size)
        self.supervision = supervision or SupervisionPolicy()
        self.cache = cache
        self.sleep_fn = sleep_fn
        self.time_fn = time_fn
        self._rng = make_rng(derive_seed(seed, "service-backoff"))
        #: pid -> last time the pool made progress while it was alive
        self.heartbeats: Dict[int, float] = {}
        self.stalls = 0
        self.pool_shrinks = 0
        self.cache_hits = 0
        self.backoff_seconds = 0.0
        self._broken_generations = 0
        self._deadline: Optional[float] = None

    # -- job deadline -------------------------------------------------------------

    def set_deadline(self, seconds: Optional[float]) -> None:
        """Arm (or clear) the per-job wall-clock deadline."""
        self._deadline = None if seconds is None \
            else self.time_fn() + seconds

    def _check_deadline(self) -> None:
        if self._deadline is not None and self.time_fn() > self._deadline:
            raise JobTimeoutError(
                f"job exceeded its "
                f"{self.supervision.job_timeout_seconds}s deadline; "
                f"progress so far is journalled and a retry will resume")

    # -- sweep driver with cache --------------------------------------------------

    def run(self, configs: Sequence[ArchitectureConfiguration]
            ) -> CampaignResult:
        if self.supervision.job_timeout_seconds is not None \
                and self._deadline is None:
            self.set_deadline(self.supervision.job_timeout_seconds)
        self._seed_from_cache(configs)
        return super().run(configs)

    def _seed_from_cache(self,
                         configs: Sequence[ArchitectureConfiguration]
                         ) -> None:
        """Install every verified cache hit before anything dispatches.

        Only ``ok`` records are ever cached (see :meth:`_persist`), so a
        transient failure in one campaign can never haunt the next."""
        if self.cache is None:
            return
        for config in configs:
            key = config_key(config)
            if key in self._records:
                continue
            record = self.cache.get(key)
            if record is not None:
                self.seed_record(key, record)
                self.cache_hits += 1

    def _persist(self, key, record):
        record = super()._persist(key, record)
        if self.cache is not None and record["status"] == "ok":
            self.cache.put(key, record)
        self._check_deadline()
        return record

    # -- supervision seams --------------------------------------------------------

    def _heartbeat_seconds(self) -> Optional[float]:
        return self.supervision.heartbeat_seconds

    def _probe_timeout_seconds(self) -> Optional[float]:
        return self.supervision.effective_probe_timeout()

    def _handle_stall(self, pool, in_flight) -> bool:
        """No completion within the heartbeat deadline: terminate the
        stuck workers and hand their work to the probe machinery."""
        self.stalls += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_worker_stalls_total",
                "pool teardowns after a missed heartbeat deadline").inc()
        self._terminate_pool_processes(pool)
        return True

    def _after_broken_generation(self, suspects: int) -> None:
        """Degrade and back off after a crash or stall generation."""
        self._broken_generations += 1
        if self.jobs > self.supervision.min_jobs:
            self.jobs -= 1
            self.pool_shrinks += 1
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "service_pool_shrinks_total",
                    "workers removed from the pool after broken "
                    "generations").inc()
                registry.gauge(
                    "service_pool_size",
                    "current worker-pool size after degradation"
                ).set(self.jobs)
        self._backoff()

    def _backoff(self) -> None:
        policy = self.supervision
        delay = min(policy.backoff_cap_seconds,
                    policy.backoff_base_seconds
                    * (2 ** (self._broken_generations - 1)))
        delay *= 1.0 + policy.jitter * self._rng.random()
        self.backoff_seconds += delay
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_backoff_seconds_total",
                "seconds slept before refilling broken pools").inc(delay)
        self.sleep_fn(delay)

    # -- heartbeat bookkeeping ----------------------------------------------------

    def _observe_chunk(self, future, submitted_at, chunk_seconds,
                       registry) -> None:
        super()._observe_chunk(future, submitted_at, chunk_seconds,
                               registry)
        self._beat()

    def _beat(self) -> None:
        """Refresh the liveness map for every currently alive worker."""
        now = self.time_fn()
        for pid in list(self._alive_worker_pids()):
            self.heartbeats[pid] = now

    def _alive_worker_pids(self) -> List[int]:
        # multiprocessing keeps the authoritative list; fall back to the
        # recorded map when no pool is up
        import multiprocessing
        return [child.pid for child in multiprocessing.active_children()
                if child.pid is not None]
