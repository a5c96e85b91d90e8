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

Both search through a :class:`~repro.dse.campaign.CampaignRunner`: every
frontier (the whole space, all restart points, all neighbours of the
current best) is one :meth:`~repro.dse.campaign.CampaignRunner.evaluate_batch`
call, concurrent when the runner has ``jobs > 1``. A configuration whose
evaluation failed comes back as ``None``, a dead end the search routes
around; the runner has already contained, journalled and (for a killed
or stalled worker) re-probed it.

The E1 benchmark shows the heuristic reaches the exhaustive optimum with
a fraction of the evaluations on the paper's space.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.campaign import CampaignRunner
from repro.dse.config import ArchitectureConfiguration
from repro.dse.evaluator import EvaluationResult
from repro.dse.pareto import DesignConstraints, select_best
from repro.dse.space import DesignSpace


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
        return (0, result.power.system_w)
    return (1, result.required_clock_hz)


class ExhaustiveExplorer:
    def __init__(self, runner: CampaignRunner,
                 constraints: Optional[DesignConstraints] = None):
        self.runner = runner
        self.constraints = constraints or DesignConstraints()

    def explore(self, space: DesignSpace) -> ExplorationOutcome:
        configs = space.configurations()
        results: List[EvaluationResult] = []
        failed: List[ArchitectureConfiguration] = []
        for config, result in zip(configs,
                                  self.runner.evaluate_batch(configs)):
            if result is None:
                failed.append(config)
            else:
                results.append(result)
        return ExplorationOutcome(
            best=select_best(results, self.constraints),
            evaluated=results,
            evaluations_used=len(configs),
            failed=failed)


class GreedyExplorer:
    """Hill climbing with restarts from each table option's cheapest point."""

    def __init__(self, runner: CampaignRunner,
                 constraints: Optional[DesignConstraints] = None):
        self.runner = runner
        self.constraints = constraints or DesignConstraints()
        #: keyed by the *logical* configuration (CAM search latency
        #: normalised away — the evaluator's fixed point re-resolves it),
        #: so restarts and repeated explore() calls reuse every result;
        #: ``None`` marks a configuration whose evaluation failed. A
        #: resumed runner also holds records this search never visited,
        #: so its records cannot stand in for this cache.
        self._cache: Dict[ArchitectureConfiguration,
                          Optional[EvaluationResult]] = {}

    def explore(self, space: DesignSpace) -> ExplorationOutcome:
        best: Optional[EvaluationResult] = None
        starts = [ArchitectureConfiguration(
            bus_count=min(space.bus_counts),
            matchers=min(space.fu_set_counts),
            counters=min(space.fu_set_counts),
            comparators=min(space.fu_set_counts),
            table_kind=kind) for kind in space.table_kinds]
        for first in self._expand(starts):
            candidate = self._climb(first, space)
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

    def _expand(self, configs: Sequence[ArchitectureConfiguration]
                ) -> List[Optional[EvaluationResult]]:
        """Results aligned with *configs*; every uncached one is
        evaluated in one runner batch. ``None`` marks a dead end."""
        keys = [self._key(config) for config in configs]
        missing = list(dict.fromkeys(
            key for key in keys if key not in self._cache))
        if missing:
            self._cache.update(zip(missing,
                                   self.runner.evaluate_batch(missing)))
        return [self._cache[key] for key in keys]

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

    def _climb(self, current: Optional[EvaluationResult],
               space: DesignSpace) -> Optional[EvaluationResult]:
        if current is None:
            return None
        while True:
            moves = [m for m in self._expand(
                self._neighbours(current.config, space)) if m is not None]
            if not moves:
                return current
            best_move = min(moves, key=lambda r: _score(r, self.constraints))
            if _score(best_move, self.constraints) < _score(current,
                                                            self.constraints):
                current = best_move
            else:
                return current
