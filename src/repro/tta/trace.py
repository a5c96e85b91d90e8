"""Execution tracing: a per-cycle record of what the processor did.

The paper's simulation environment exists to let the designer *see* what
an architecture instance does with the application; this tracer is the
equivalent debugging aid. :class:`TracingSimulator` hooks the simulator's
move observer and captures, per cycle, the fetched pc and every
transport with its value (or its squashing), renderable as a
waveform-style text listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.tta.instruction import Move
from repro.tta.memory import ProgramMemory
from repro.tta.processor import TacoProcessor
from repro.tta.simulator import Simulator
from repro.tta.stats import SimulationReport


@dataclass
class TracedMove:
    bus: int
    move: Move
    value: Optional[int]  # None = guard squashed the move

    def render(self) -> str:
        if self.value is None:
            return f"[{self.move}] (squashed)"
        return f"{self.move} = {self.value:#x}"


@dataclass
class TraceCycle:
    cycle: int
    pc: int
    moves: List[TracedMove] = field(default_factory=list)

    def render(self) -> str:
        body = " ; ".join(m.render() for m in self.moves) or "(nop)"
        return f"{self.cycle:6d}  pc={self.pc:<4d} {body}"


class TracingSimulator(Simulator):
    """A Simulator that records every transport it issues."""

    def __init__(self, processor: TacoProcessor, program: ProgramMemory,
                 max_trace_cycles: int = 100_000):
        super().__init__(processor, program)
        self.trace: List[TraceCycle] = []
        self.max_trace_cycles = max_trace_cycles
        #: True once any cycle fell past ``max_trace_cycles`` — a partial
        #: trace must never be mistakable for a complete one
        self.truncated = False
        #: distinct cycles whose moves were not recorded
        self.dropped_cycles = 0
        self._last_dropped_cycle: Optional[int] = None
        self.move_hook = self._record

    def _record(self, cycle: int, pc: int, bus: int, move: Move,
                value: Optional[int]) -> None:
        if self.trace and self.trace[-1].cycle == cycle:
            # A cycle that started recording keeps every one of its
            # moves, even if the limit was reached mid-cycle: truncation
            # happens only on whole-cycle boundaries.
            record = self.trace[-1]
        else:
            if len(self.trace) >= self.max_trace_cycles:
                self.truncated = True
                if self._last_dropped_cycle != cycle:
                    self._last_dropped_cycle = cycle
                    self.dropped_cycles += 1
                return
            record = TraceCycle(cycle=cycle, pc=pc)
            self.trace.append(record)
        record.moves.append(TracedMove(bus=bus, move=move, value=value))

    def render(self, first: int = 0, last: Optional[int] = None) -> str:
        lines = [c.render() for c in self.trace[first:last]]
        if self.truncated and (last is None or last >= len(self.trace)):
            lines.append(
                f"... trace truncated: {self.dropped_cycles} later "
                f"cycle(s) not recorded "
                f"(max_trace_cycles={self.max_trace_cycles})")
        return "\n".join(lines)

    def moves_of(self, fu_name: str) -> List[Tuple[int, TracedMove]]:
        """All traced moves touching one FU (for focused debugging)."""
        out: List[Tuple[int, TracedMove]] = []
        for record in self.trace:
            for traced in record.moves:
                dest = traced.move.destination
                source = traced.move.source
                if dest.fu == fu_name or getattr(source, "fu", None) == fu_name:
                    out.append((record.cycle, traced))
        return out


def trace_program(processor: TacoProcessor, program: ProgramMemory,
                  max_cycles: int = 100_000
                  ) -> "tuple[SimulationReport, TracingSimulator]":
    """Run to halt with tracing enabled; returns (report, tracer)."""
    processor.reset()
    simulator = TracingSimulator(processor, program)
    report = simulator.run(max_cycles=max_cycles)
    return report, simulator
