"""Parallel design-space campaigns over a multiprocessing pool.

The paper's point is *fast* evaluation of protocol-processor design
spaces, and a sweep is embarrassingly parallel: every simulate+estimate
turn is independent of every other. :class:`ParallelCampaignRunner` runs
a campaign on the shared :class:`~repro.dse.sweep.JournaledSweep` engine
with ``jobs`` worker processes, keeping every guarantee of the sequential
:class:`~repro.dse.campaign.CampaignRunner` it extends:

* **one evaluator per worker** — the pool initializer builds the
  evaluator (workload, routes, golden router) once per process, so the
  per-configuration cost is simulation, not setup;
* **per-worker cycle-budget enforcement** — each worker runs the same
  :func:`~repro.dse.campaign.evaluate_guarded` deadline/retry loop the
  sequential runner uses, and results come back as journal records;
  area/power are reconstructed in the parent through the same pure
  estimation functions, so a parallel sweep is bit-for-bit identical to
  a sequential one;
* **deterministic output and journal** — the engine persists records in
  input order, so both the rendered Table 1 and the journal bytes match
  a ``jobs=1`` run;
* **crashed workers are survivable** — the engine re-probes every
  configuration a dead worker left unfinished one at a time, and one
  that kills its prober too is quarantined as an
  :class:`~repro.dse.campaign.EvaluationFailure` with error
  :class:`~repro.errors.WorkerCrashError`;
* **journal + resume keep working** — journal writes stay in the parent,
  and ``resume=True`` skips every already-journalled configuration
  *before* anything is dispatched to the pool.

With ``jobs=1`` no pool is created and the behaviour is exactly the
sequential runner's.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dse.campaign import CampaignPolicy, CampaignRunner, evaluate_guarded
from repro.dse.config import ArchitectureConfiguration
from repro.dse.sweep import JournaledSweep
from repro.errors import CampaignError


def _campaign_context(factory, policy: CampaignPolicy):
    """Pool initializer: build the evaluator once per worker process."""
    return factory(), policy


def _evaluate(config: ArchitectureConfiguration,
              context) -> Dict[str, object]:
    """One guarded evaluation in a worker; always returns a record."""
    evaluator, policy = context
    return evaluate_guarded(evaluator, config, policy)


class ParallelCampaignRunner(CampaignRunner):
    """A :class:`CampaignRunner` whose sweeps fan out over a process pool.

    Takes an *evaluator factory* rather than an evaluator so each worker
    (and the parent, for single ``evaluate`` calls) can build its own
    instance; the factory must be picklable — a top-level callable or a
    ``functools.partial`` over one.

    Satisfies both the :class:`~repro.dse.protocols.Evaluator` and
    :class:`~repro.dse.protocols.BatchEvaluator` protocols, so explorers
    running on top of it expand whole search frontiers concurrently.
    """

    measure = staticmethod(_evaluate)

    def __init__(self, evaluator_factory,
                 jobs: int = 2,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 policy: Optional[CampaignPolicy] = None,
                 chunk_size: Optional[int] = None):
        if not callable(evaluator_factory):
            raise CampaignError(
                "evaluator_factory must be a callable returning an "
                "evaluator (it is invoked once per worker process)")
        JournaledSweep.__init__(self, journal_path, resume, jobs=jobs,
                                chunk_size=chunk_size)
        self.evaluator_factory = evaluator_factory
        self.evaluator = evaluator_factory()
        self.policy = policy or CampaignPolicy()

    def _context_spec(self):
        return _campaign_context, (self.evaluator_factory, self.policy)
