"""Automated design-space exploration — the paper's stated future work.

"We would like to develop a tool that automates the design space
exploration phase, which based on some heuristics will suggest good
solutions, with respect to performance requirements and physical
constraints" (§5). Two searchers over a :class:`DesignSpace`:

* :class:`ExhaustiveExplorer` — evaluate everything (the ground truth);
* :class:`GreedyExplorer` — the heuristic tool: start from the cheapest
  instance of each table option and take the single locally best move
  (add a bus / add an FU set / switch table option) until a feasible,
  constraint-satisfying design stops improving. Evaluations are cached,
  so its cost is the number of *distinct* designs visited.

The E1 benchmark shows the heuristic reaches the exhaustive optimum with
a fraction of the evaluations on the paper's space.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dse.config import ArchitectureConfiguration
from repro.dse.evaluator import EvaluationResult
from repro.dse.pareto import DesignConstraints, select_best
from repro.dse.protocols import Evaluator, supports_batching
from repro.dse.space import DesignSpace
from repro.errors import EvaluationFailureError, SimulationError

#: failure classes caused by the *infrastructure* (a worker process
#: died or wedged), not by the configuration itself — worth one retry
#: before the configuration is written off
_TRANSIENT_FAILURES = frozenset({"WorkerCrashError", "WorkerStallError"})


@dataclass
class ExplorationOutcome:
    best: Optional[EvaluationResult]
    evaluated: List[EvaluationResult] = field(default_factory=list)
    evaluations_used: int = 0
    #: configurations whose evaluation failed and were skipped by the
    #: search instead of aborting it
    failed: List[ArchitectureConfiguration] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"evaluations used: {self.evaluations_used}"]
        for config in self.failed:
            lines.append(f"quarantined: {config.describe()}")
        if self.best is None:
            lines.append("no configuration satisfies the constraints")
        else:
            lines.append(f"selected: {self.best.summary()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict() if self.best is not None else None,
            "evaluations_used": self.evaluations_used,
            "evaluated": [result.to_dict() for result in self.evaluated],
            "failed": [dataclasses.asdict(config)
                       for config in self.failed],
        }


def _score(result: EvaluationResult,
           constraints: DesignConstraints) -> Tuple[int, float]:
    """Lower is better: infeasible designs rank by how far the required
    clock overshoots; admissible ones by power."""
    if constraints.admits(result):
        power = (result.power.system_w if constraints.include_cam_power
                 else result.power.processor_w)
        return (0, power)
    return (1, result.required_clock_hz)


class ExhaustiveExplorer:
    def __init__(self, evaluator: Evaluator,
                 constraints: Optional[DesignConstraints] = None):
        self.evaluator = evaluator
        self.constraints = constraints or DesignConstraints()

    def explore(self, space: DesignSpace) -> ExplorationOutcome:
        configs = space.configurations()
        results: List[EvaluationResult] = []
        failed: List[ArchitectureConfiguration] = []
        if supports_batching(self.evaluator):
            # one call for the whole space: a CampaignRunner with
            # jobs > 1 sweeps it concurrently
            for config, result in zip(
                    configs, self.evaluator.evaluate_batch(configs)):
                if result is None:
                    failed.append(config)
                else:
                    results.append(result)
        else:
            for config in configs:
                try:
                    results.append(self.evaluator.evaluate(config))
                except SimulationError:
                    failed.append(config)
        return ExplorationOutcome(
            best=select_best(results, self.constraints),
            evaluated=results,
            evaluations_used=len(configs),
            failed=failed)


class GreedyExplorer:
    """Hill climbing with restarts from each table option's cheapest point.

    Failures are classified before they become dead ends: a *transient*
    failure (a pool worker crashed or stalled under this configuration —
    infrastructure, not design) gets exactly one backoff retry; a
    *structural* one (budget overrun, functional mismatch, estimation
    error — properties of the design itself) is cached as a permanent
    ``None`` sentinel and never retried. *sleep_fn* is injectable so
    tests replay the backoff without waiting.
    """

    def __init__(self, evaluator: Evaluator,
                 constraints: Optional[DesignConstraints] = None,
                 retry_backoff_seconds: float = 0.05,
                 sleep_fn: Callable[[float], None] = time.sleep):
        self.evaluator = evaluator
        self.constraints = constraints or DesignConstraints()
        self.retry_backoff_seconds = retry_backoff_seconds
        self.sleep_fn = sleep_fn
        #: transient-failure retries attempted (at most one per config)
        self.transient_retries = 0
        #: keyed by the *logical* configuration (CAM search latency
        #: normalised away — the evaluator's fixed point re-resolves it),
        #: so restarts and repeated explore() calls reuse every result;
        #: ``None`` marks a configuration whose evaluation failed.
        self._cache: Dict[ArchitectureConfiguration,
                          Optional[EvaluationResult]] = {}
        self._retried: Set[ArchitectureConfiguration] = set()

    def explore(self, space: DesignSpace) -> ExplorationOutcome:
        best: Optional[EvaluationResult] = None
        starts = [ArchitectureConfiguration(
            bus_count=min(space.bus_counts),
            matchers=min(space.fu_set_counts),
            counters=min(space.fu_set_counts),
            comparators=min(space.fu_set_counts),
            table_kind=kind) for kind in space.table_kinds]
        # frontier expansion: a batch-capable evaluator (process pool)
        # takes all restart points in one concurrent call
        self._prefetch(starts)
        for start in starts:
            candidate = self._climb(start, space)
            if candidate is None:
                continue
            if best is None or (_score(candidate, self.constraints)
                                < _score(best, self.constraints)):
                best = candidate
        evaluated = [r for r in self._cache.values() if r is not None]
        failed = [c for c, r in self._cache.items() if r is None]
        final = best if best is not None and \
            self.constraints.admits(best) else None
        return ExplorationOutcome(best=final, evaluated=evaluated,
                                  evaluations_used=len(self._cache),
                                  failed=failed)

    # -- internals --------------------------------------------------------------------

    @staticmethod
    def _key(config: ArchitectureConfiguration) -> ArchitectureConfiguration:
        return config.with_cam_latency(1)

    def _prefetch(self, configs: Sequence[ArchitectureConfiguration]) -> None:
        """Evaluate every uncached configuration in one batch call.

        A no-op unless the evaluator supports batching, in which case a
        whole search frontier (all restart points, all neighbours of the
        current best) is evaluated concurrently instead of one at a time.
        """
        if not supports_batching(self.evaluator):
            return
        missing = []
        for config in configs:
            key = self._key(config)
            if key not in self._cache and key not in missing:
                missing.append(key)
        if not missing:
            return
        for key, result in zip(missing,
                               self.evaluator.evaluate_batch(missing)):
            self._cache[key] = result  # None marks a contained failure
        retryable = [key for key in missing
                     if self._cache[key] is None
                     and self._transient_reason(key) is not None
                     and key not in self._retried]
        if not retryable:
            return
        self._retried.update(retryable)
        self.transient_retries += len(retryable)
        self.sleep_fn(self.retry_backoff_seconds)
        for key in retryable:
            self.evaluator.forget_failure(key)
        for key, result in zip(retryable,
                               self.evaluator.evaluate_batch(retryable)):
            self._cache[key] = result  # still None => now structural

    def _transient_reason(self, key: ArchitectureConfiguration
                          ) -> Optional[str]:
        """The transient error class a batch evaluator recorded for
        *key*, when it exposes one (journal-backed runners do)."""
        reason_of = getattr(self.evaluator, "failure_reason", None)
        if reason_of is None or \
                not hasattr(self.evaluator, "forget_failure"):
            return None
        reason = reason_of(key)
        return reason if reason in _TRANSIENT_FAILURES else None

    def _evaluate(self, config: ArchitectureConfiguration
                  ) -> Optional[EvaluationResult]:
        key = self._key(config)
        if key not in self._cache:
            try:
                self._cache[key] = self.evaluator.evaluate(key)
            except SimulationError as exc:
                # One bad configuration must not abort the whole climb:
                # let the search route around it. Infrastructure-class
                # failures get a single backoff retry first; anything
                # structural becomes a permanent dead-end sentinel.
                self._cache[key] = None
                if self._should_retry(key, exc):
                    self.transient_retries += 1
                    self.sleep_fn(self.retry_backoff_seconds)
                    self.evaluator.forget_failure(key)
                    try:
                        self._cache[key] = self.evaluator.evaluate(key)
                    except SimulationError:
                        self._cache[key] = None
        return self._cache[key]

    def _should_retry(self, key: ArchitectureConfiguration,
                      exc: SimulationError) -> bool:
        if key in self._retried:
            return False
        self._retried.add(key)
        return (isinstance(exc, EvaluationFailureError)
                and exc.failure is not None
                and exc.failure.error in _TRANSIENT_FAILURES
                and hasattr(self.evaluator, "forget_failure"))

    def _neighbours(self, config: ArchitectureConfiguration,
                    space: DesignSpace) -> List[ArchitectureConfiguration]:
        out = []
        buses = sorted(space.bus_counts)
        sets = sorted(space.fu_set_counts)
        if config.bus_count in buses:
            i = buses.index(config.bus_count)
            if i + 1 < len(buses):
                out.append(replace(config, bus_count=buses[i + 1]))
        if config.matchers in sets:
            i = sets.index(config.matchers)
            if i + 1 < len(sets):
                n = sets[i + 1]
                out.append(replace(config, matchers=n, counters=n,
                                   comparators=n))
        return out

    def _climb(self, start: ArchitectureConfiguration,
               space: DesignSpace) -> Optional[EvaluationResult]:
        current = self._evaluate(start)
        if current is None:
            return None
        while True:
            neighbours = self._neighbours(current.config, space)
            self._prefetch(neighbours)  # all moves evaluated concurrently
            moves = [m for m in
                     (self._evaluate(n) for n in neighbours)
                     if m is not None]
            if not moves:
                return current
            best_move = min(moves, key=lambda r: _score(r, self.constraints))
            if _score(best_move, self.constraints) < _score(current,
                                                            self.constraints):
                current = best_move
            else:
                return current
