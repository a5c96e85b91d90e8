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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cache": ("CACHE_VERSION", "EvaluationCache", "record_checksum"),
    ".chaos": ("ChaosPhase", "ServiceChaosReport", "run_service_chaos"),
    ".jobs": ("JOB_STATES", "CampaignService", "JobRecord",
              "normalise_plan"),
    "repro.dse.sweep": ("SupervisionPolicy",),
    ".supervisor": ("SupervisedCampaignRunner",),
})
