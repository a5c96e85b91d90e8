"""Formal evaluator protocols — the contracts the DSE layer is typed against.

Historically every search and campaign component took the concrete
:class:`~repro.dse.evaluator.ArchitectureEvaluator`, even though all any
of them ever call is ``evaluate(config, max_cycles=...)``. That implicit
duck type is now written down:

* :class:`Evaluator` — anything that can evaluate one configuration.
  Satisfied by :class:`~repro.dse.evaluator.ArchitectureEvaluator`,
  :class:`~repro.dse.campaign.CampaignRunner`,
  :class:`~repro.dse.campaign.PoisonedEvaluator`, and any test stub
  with the right method.
* :class:`BatchEvaluator` — an evaluator that can additionally evaluate a
  *batch* of configurations at once (typically concurrently). Explorers
  probe for this with :func:`supports_batching` and, when present, expand
  a whole search frontier in one call instead of one configuration at a
  time.

Both protocols are ``runtime_checkable``, so ``isinstance(x, Evaluator)``
works, with the usual caveat that only method *presence* is checked.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # avoid a module cycle with repro.dse.evaluator
    from repro.dse.config import ArchitectureConfiguration
    from repro.dse.evaluator import EvaluationResult


@runtime_checkable
class Evaluator(Protocol):
    """Evaluates one architecture configuration.

    ``max_cycles`` caps the simulation; exhausting it raises
    :class:`~repro.errors.CycleBudgetError`. Implementations signal a
    failed evaluation by raising a
    :class:`~repro.errors.SimulationError` subclass; searches treat that
    as a dead end, not a crash.
    """

    def evaluate(self, config: "ArchitectureConfiguration", *,
                 max_cycles: Optional[int] = None) -> "EvaluationResult":
        ...


#: the name :mod:`repro.dse` exports :class:`Evaluator` under
EvaluatorProtocol = Evaluator


@runtime_checkable
class BatchEvaluator(Protocol):
    """An :class:`Evaluator` that can also evaluate many configurations
    in one call (typically fanned out over a worker pool).

    ``evaluate_batch`` never raises for an individual configuration: the
    returned list is aligned with the input, with ``None`` standing in
    for each configuration whose evaluation failed.
    """

    def evaluate(self, config: "ArchitectureConfiguration", *,
                 max_cycles: Optional[int] = None) -> "EvaluationResult":
        ...

    def evaluate_batch(self, configs: Sequence["ArchitectureConfiguration"]
                       ) -> List[Optional["EvaluationResult"]]:
        ...


def supports_batching(evaluator: object) -> bool:
    """True when *evaluator* exposes batch evaluation.

    A plain ``isinstance(..., BatchEvaluator)`` is unreliable for
    wrappers with a forwarding ``__getattr__`` (the lookup can succeed
    even though the wrapped evaluator lacks the method), so resolve the
    attribute and require it to be callable.
    """
    return callable(getattr(evaluator, "evaluate_batch", None))
