"""Self-healing campaign service: queue, cache, supervision, chaos.

The DSE layer's campaign runner (:mod:`repro.dse.campaign`) is a
library you call; this package turns it into a *service* you submit to:

* :mod:`repro.service.jobs` — the persistent job queue
  (:class:`CampaignService`): submit/status/poll/fetch/cancel over a
  crash-recoverable spool directory;
* :mod:`repro.service.supervisor` — the evaluation cache and per-job
  deadline a service adds to the campaign runner
  (:class:`SupervisedCampaignRunner`). Stall detection, probe deadlines,
  backoff and pool shrinking are the sweep engine's, configured by
  :class:`~repro.dse.sweep.SupervisionPolicy` (re-exported here);
* :mod:`repro.service.cache` — the content-addressed, SHA-256
  integrity-checked evaluation cache (:class:`EvaluationCache`);
* :mod:`repro.service.chaos` — the service-level chaos harness that
  proves the whole stack recovers to byte-identical results
  (:func:`run_service_chaos`).
"""

from repro.service.cache import CACHE_VERSION, EvaluationCache, \
    record_checksum
from repro.service.chaos import ChaosPhase, ServiceChaosReport, \
    run_service_chaos
from repro.service.jobs import (
    JOB_STATES,
    PLAN_KINDS,
    CampaignService,
    JobRecord,
    normalise_plan,
    plan_configs,
)
from repro.dse.sweep import SupervisionPolicy
from repro.service.supervisor import SupervisedCampaignRunner

__all__ = [
    "CACHE_VERSION",
    "CampaignService",
    "ChaosPhase",
    "EvaluationCache",
    "JOB_STATES",
    "JobRecord",
    "PLAN_KINDS",
    "normalise_plan",
    "plan_configs",
    "record_checksum",
    "run_service_chaos",
    "ServiceChaosReport",
    "SupervisedCampaignRunner",
    "SupervisionPolicy",
]
