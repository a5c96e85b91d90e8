"""Supervised campaign execution: the evaluation cache and job deadline.

Stall detection, probe deadlines, pool shrinking and backoff belong to
every pooled sweep, so they live in the sweep engine
(:class:`~repro.dse.sweep.JournaledSweep`, under one
:class:`~repro.dse.sweep.SupervisionPolicy`). What a long-lived service
adds on top — the management plane of the data-path/management-plane
split the fast-programmable-router literature draws — is
:class:`SupervisedCampaignRunner`:

* **per-job wall-clock deadline** — exceeded deadlines raise
  :class:`~repro.errors.JobTimeoutError` *after* persisting the record
  in hand: the journal keeps everything the job earned, so a retry
  resumes instead of restarting;
* **evaluation cache** — before dispatch, every configuration is looked
  up in an integrity-checked :class:`~repro.service.cache.EvaluationCache`;
  verified hits are seeded into the journal as if evaluated (byte-
  identical output), fresh successes are written back, and corrupt
  entries are quarantined and transparently recomputed.

With no job deadline and no cache this class behaves exactly like
:class:`~repro.dse.campaign.CampaignRunner`.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.dse.campaign import (
    CampaignResult,
    CampaignRunner,
    config_key,
)
from repro.dse.config import ArchitectureConfiguration
from repro.dse.protocols import Evaluator
from repro.dse.sweep import SupervisionPolicy
from repro.errors import JobTimeoutError
from repro.service.cache import EvaluationCache


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
                 cycle_budget: Optional[int] = None,
                 chunk_size: Optional[int] = None,
                 supervision: Optional[SupervisionPolicy] = None,
                 cache: Optional[EvaluationCache] = None,
                 seed: int = 0,
                 sleep_fn: Callable[[float], None] = time.sleep,
                 time_fn: Callable[[], float] = time.monotonic):
        super().__init__(evaluator, journal_path=journal_path,
                         resume=resume, cycle_budget=cycle_budget, jobs=jobs,
                         chunk_size=chunk_size)
        self.supervision = supervision or SupervisionPolicy()
        self.sleep_fn = sleep_fn
        self.seed_backoff(seed)
        self.cache = cache
        self.time_fn = time_fn
        self.cache_hits = 0
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
