"""Simulation statistics: cycle counts and bus/FU utilisation.

These are exactly the outputs the paper's SystemC simulations yield: "the
simulations yield functional correctness information as well as the total
cycle count of the application", and Table 1's "Bus util. [%]" column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class SimulationReport:
    """Everything measured during one simulation run."""

    cycles: int = 0
    instructions_fetched: int = 0
    moves_executed: int = 0
    moves_squashed: int = 0
    bus_busy_cycles: List[int] = field(default_factory=list)
    fu_triggers: Dict[str, int] = field(default_factory=dict)
    halted: bool = False
    #: hazard occurrences by kind, populated when a
    #: :class:`repro.tta.hazards.HazardDetector` is attached
    hazards: Dict[str, int] = field(default_factory=dict)

    @property
    def bus_count(self) -> int:
        return len(self.bus_busy_cycles)

    @property
    def bus_utilization(self) -> float:
        """Fraction of bus-slot-cycles that carried a move (0..1)."""
        total_slots = self.cycles * max(self.bus_count, 1)
        if total_slots == 0:
            return 0.0
        return sum(self.bus_busy_cycles) / total_slots

    def per_bus_utilization(self) -> List[float]:
        if self.cycles == 0:
            return [0.0] * self.bus_count
        return [busy / self.cycles for busy in self.bus_busy_cycles]

    def merge(self, other: "SimulationReport") -> "SimulationReport":
        """Accumulate a second run (used when simulating packet batches).

        ``halted`` is sticky: the merged report is halted if *either*
        side halted, so a batch that ran to completion is not reported
        un-halted because a later zero-cycle report was folded in. Bus
        counts are validated whenever both sides carry bus data — an
        empty side (a freshly constructed accumulator) adopts the other
        side's bus layout instead of silently truncating it.
        """
        if self.bus_busy_cycles and other.bus_busy_cycles:
            if other.bus_count != self.bus_count:
                raise ValueError(
                    f"cannot merge reports with different bus counts "
                    f"({self.bus_count} vs {other.bus_count})")
            busy = [a + b for a, b in zip(self.bus_busy_cycles,
                                          other.bus_busy_cycles)]
        else:
            busy = list(self.bus_busy_cycles or other.bus_busy_cycles)
        merged = SimulationReport(
            cycles=self.cycles + other.cycles,
            instructions_fetched=self.instructions_fetched + other.instructions_fetched,
            moves_executed=self.moves_executed + other.moves_executed,
            moves_squashed=self.moves_squashed + other.moves_squashed,
            bus_busy_cycles=busy,
            fu_triggers=dict(self.fu_triggers),
            halted=self.halted or other.halted,
            hazards=dict(self.hazards),
        )
        for name, count in other.fu_triggers.items():
            merged.fu_triggers[name] = merged.fu_triggers.get(name, 0) + count
        for kind, count in other.hazards.items():
            merged.hazards[kind] = merged.hazards.get(kind, 0) + count
        return merged

    def summary(self) -> str:
        lines = [
            f"cycles:             {self.cycles}",
            f"moves executed:     {self.moves_executed}",
            f"moves squashed:     {self.moves_squashed}",
            f"bus utilisation:    {self.bus_utilization * 100:.1f}%",
        ]
        for i, util in enumerate(self.per_bus_utilization()):
            lines.append(f"  bus {i}:            {util * 100:.1f}%")
        for name in sorted(self.fu_triggers):
            lines.append(f"  {name} triggers: {self.fu_triggers[name]}")
        for kind in sorted(self.hazards):
            lines.append(f"  hazard {kind}: {self.hazards[kind]}")
        return "\n".join(lines)
