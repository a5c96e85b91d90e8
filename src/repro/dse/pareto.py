"""Pareto analysis and constraint-based selection of evaluated designs.

"In the end we select for synthesis a configuration that is able to
perform the target application within given power and area constraints"
(§1). Feasibility means the required clock fits the library; among
feasible designs, lower area and lower power dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dse.evaluator import EvaluationResult


@dataclass(frozen=True)
class DesignConstraints:
    """Selection limits: a design must fit all of them."""

    max_area_mm2: Optional[float] = None
    #: system power: the processor plus any external CAM chip
    max_power_w: Optional[float] = None

    def admits(self, result: EvaluationResult) -> bool:
        if not result.feasible or result.area is None or result.power is None:
            return False
        if self.max_area_mm2 is not None and \
                result.area.total_mm2 > self.max_area_mm2:
            return False
        if self.max_power_w is not None and \
                result.power.system_w > self.max_power_w:
            return False
        return True


def _objectives(result: EvaluationResult) -> "tuple[float, float, float]":
    return (result.required_clock_hz, result.area.total_mm2,
            result.power.system_w)


def pareto_front(results: Sequence[EvaluationResult]
                 ) -> List[EvaluationResult]:
    """Non-dominated feasible designs over (clock, area, power)."""
    feasible = [r for r in results if r.feasible and r.area and r.power]
    front: List[EvaluationResult] = []
    for candidate in feasible:
        c = _objectives(candidate)
        dominated = False
        for other in feasible:
            if other is candidate:
                continue
            o = _objectives(other)
            if all(a <= b for a, b in zip(o, c)) and o != c:
                dominated = True
                break
        if not dominated:
            front.append(candidate)
    return front


def select_best(results: Sequence[EvaluationResult],
                constraints: Optional[DesignConstraints] = None
                ) -> Optional[EvaluationResult]:
    """The paper's final selection: cheapest admissible design by power,
    area breaking ties."""
    constraints = constraints or DesignConstraints()
    admissible = [r for r in results if constraints.admits(r)]
    if not admissible:
        return None
    return min(admissible, key=lambda r: (r.power.system_w,
                                          r.area.total_mm2))
