"""The evaluator protocol — what a campaign runner wraps.

:class:`Evaluator` is anything that can evaluate one configuration.
:class:`~repro.dse.evaluator.ArchitectureEvaluator`,
:class:`~repro.dse.campaign.PoisonedEvaluator`, the process-fault
wrappers of :mod:`repro.faults.process` and any test stub with the right
method satisfy it. A :class:`~repro.dse.campaign.CampaignRunner` wraps
one; explorers and Table 1 search through the runner, never through a
bare evaluator.

The protocol is ``runtime_checkable``, so ``isinstance(x, Evaluator)``
works, with the usual caveat that only method *presence* is checked.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # avoid a module cycle with repro.dse.evaluator
    from repro.dse.config import ArchitectureConfiguration
    from repro.dse.evaluator import EvaluationResult


@runtime_checkable
class Evaluator(Protocol):
    """Evaluates one architecture configuration.

    ``max_cycles`` caps the simulation (a campaign always passes its
    budget); exhausting it raises
    :class:`~repro.errors.CycleBudgetError`. Implementations signal a
    failed evaluation by raising a :class:`~repro.errors.ReproError`;
    the runner records it as a failed, quarantined configuration and a
    search treats it as a dead end, not a crash.
    """

    def evaluate(self, config: "ArchitectureConfiguration", *,
                 max_cycles: int) -> "EvaluationResult":
        ...


#: the name :mod:`repro.dse` exports :class:`Evaluator` under
EvaluatorProtocol = Evaluator

