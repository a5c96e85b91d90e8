"""Hazard detection: turn silent or crashing misbehavior into diagnostics.

The simulator already *rejects* some ill-formed behaviour (premature
result reads, structural hazards on non-pipelined FUs). This module covers
the misbehaviour that is silent — legal-looking move streams that almost
certainly indicate a scheduler or program bug — and the misbehaviour whose
stock diagnosis is useless (a runaway program reported only as "did not
halt"). A :class:`HazardDetector` plugs into the existing
``Simulator.move_hook`` observer and records:

* **conflicting-write** — a move writes an FU register in the same cycle
  an operation result matured into it (the bus write and the FU's internal
  result write race on one clock edge; which value survives is a silicon
  coin toss, even though the simulator applies them deterministically);
* **trigger-in-flight** — a trigger write to an FU whose previous
  operation has not completed yet (legal on pipelined FUs, but on a
  multi-cycle unit it silently discards the in-flight result);
* **read-never-written** — a move reads a general-purpose register no move
  ever wrote (the value is the reset zero, which is almost never what the
  program author meant).

For runaway programs, :func:`loop_signature` recovers the repeating pc
cycle from a trailing pc window; the simulator uses it to report *where*
a program spins instead of just that it did.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Set, Tuple

from repro.tta.instruction import Move
from repro.tta.ports import PortKind, PortRef

#: how many trailing pcs the detector (and the simulator) keep for loop
#: diagnosis; covers every loop body the code generators emit
PC_WINDOW = 64

#: a pc suffix counts as a loop once its body occurs this many times
_MIN_LOOP_REPEATS = 2

_REGISTER_FILE_KIND = "gpr"

#: hazards a detector records before it marks its report truncated
MAX_HAZARDS = 200


@dataclass(frozen=True)
class LoopSignature:
    """The repeating pc cycle a runaway program is stuck in."""

    pcs: Tuple[int, ...]
    repeats: int

    @property
    def period(self) -> int:
        return len(self.pcs)

    def render(self) -> str:
        body = "->".join(str(pc) for pc in self.pcs)
        return (f"pc loop [{body}] (period {self.period}, "
                f"x{self.repeats} in the last window)")


def loop_signature(pcs: Sequence[int]) -> Optional[LoopSignature]:
    """Smallest repeating suffix of a pc history, or None if aperiodic.

    Scans candidate periods shortest-first so a tight spin (``pc -> pc``)
    is reported as period 1 rather than any multiple of it.
    """
    history = list(pcs)
    n = len(history)
    for period in range(1, n // _MIN_LOOP_REPEATS + 1):
        matched = 0
        while matched + period < n and \
                history[n - 1 - matched] == history[n - 1 - matched - period]:
            matched += 1
        repeats = matched // period + 1
        if repeats >= _MIN_LOOP_REPEATS:
            return LoopSignature(pcs=tuple(history[n - period:]),
                                 repeats=repeats)
    return None


@dataclass(frozen=True)
class Hazard:
    """One detected hazard occurrence."""

    kind: str  # "conflicting-write" | "trigger-in-flight" | "read-never-written"
    cycle: int
    pc: int
    fu: str
    port: str
    detail: str

    def render(self) -> str:
        return (f"cycle {self.cycle} pc={self.pc}: {self.kind} on "
                f"{self.fu}.{self.port} — {self.detail}")


@dataclass
class HazardReport:
    """Everything one detector observed during a run."""

    hazards: List[Hazard] = field(default_factory=list)
    truncated: bool = False

    def __bool__(self) -> bool:
        return bool(self.hazards)

    def by_kind(self) -> "dict[str, int]":
        counts: dict[str, int] = {}
        for hazard in self.hazards:
            counts[hazard.kind] = counts.get(hazard.kind, 0) + 1
        return counts

    def render(self) -> str:
        if not self.hazards:
            return "no hazards detected"
        lines = [f"{len(self.hazards)} hazard(s)"
                 + (" (truncated)" if self.truncated else "") + ":"]
        lines.extend("  " + hazard.render() for hazard in self.hazards)
        return "\n".join(lines)


class HazardDetector:
    """Observes a simulator's move stream and records hazards.

    Attach with :meth:`attach`; it chains any hook already installed (e.g.
    a :class:`~repro.tta.trace.TracingSimulator` record hook), so tracing
    and hazard detection compose.
    """

    def __init__(self, processor):
        self.processor = processor
        self.report = HazardReport()
        self.pc_history: Deque[int] = deque(maxlen=PC_WINDOW)
        self._written_registers: Set[Tuple[str, str]] = set()
        self._cycle_writes: List[Tuple[str, str]] = []
        self._current_cycle: Optional[int] = None
        self._simulator = None

    # -- wiring -----------------------------------------------------------------

    def attach(self, simulator):
        """Install on *simulator* (chaining any existing move hook)."""
        previous = simulator.move_hook

        def hook(cycle, pc, bus, move, value):
            if previous is not None:
                previous(cycle, pc, bus, move, value)
            self.on_move(cycle, pc, bus, move, value)

        simulator.move_hook = hook
        self._simulator = simulator
        return simulator

    # -- observation ------------------------------------------------------------

    def on_move(self, cycle: int, pc: int, bus: int, move: Move,
                value: Optional[int]) -> None:
        if cycle != self._current_cycle:
            # Register writes of the previous cycle become visible now:
            # within a cycle all reads see start-of-cycle state.
            self._written_registers.update(self._cycle_writes)
            self._cycle_writes.clear()
            self._current_cycle = cycle
            self.pc_history.append(pc)
        if value is None:
            return  # guard squashed the move: no read, no write
        self._check_read(cycle, pc, move)
        self._check_write(cycle, pc, move)

    def loop_signature(self) -> Optional[LoopSignature]:
        return loop_signature(self.pc_history)

    # -- internals --------------------------------------------------------------

    def _check_read(self, cycle: int, pc: int, move: Move) -> None:
        source = move.source
        if not isinstance(source, PortRef):
            return
        fu = self.processor.fu(source.fu)
        if fu.kind != _REGISTER_FILE_KIND:
            return  # result-port timing is policed by the simulator
        # Same-cycle writes are deliberately NOT consulted: reads see
        # start-of-cycle state, so a register first written this cycle is
        # still unwritten from this move's point of view.
        key = (source.fu, source.port)
        if key not in self._written_registers:
            self._record(Hazard(
                kind="read-never-written", cycle=cycle, pc=pc,
                fu=source.fu, port=source.port,
                detail=f"{move} reads the reset value of an unwritten "
                       f"register"))

    def _check_write(self, cycle: int, pc: int, move: Move) -> None:
        fu, port = self.processor.resolve(move.destination)
        if port.kind is PortKind.TRIGGER and fu.in_flight(cycle):
            self._record(Hazard(
                kind="trigger-in-flight", cycle=cycle, pc=pc,
                fu=fu.name, port=port.name,
                detail=f"{move} re-triggers {fu.name} while its previous "
                       f"operation (latency {fu.latency}) is still in "
                       f"flight"))
        if port.kind in (PortKind.RESULT, PortKind.REGISTER) and \
                cycle > 0 and port.valid_from_cycle == cycle:
            self._record(Hazard(
                kind="conflicting-write", cycle=cycle, pc=pc,
                fu=fu.name, port=port.name,
                detail=f"{move} writes the register in the same cycle an "
                       f"operation result matured into it"))
        if fu.kind == _REGISTER_FILE_KIND:
            self._cycle_writes.append((fu.name, port.name))

    def _record(self, hazard: Hazard) -> None:
        if len(self.report.hazards) >= MAX_HAZARDS:
            self.report.truncated = True
            return
        self.report.hazards.append(hazard)
        if self._simulator is not None:
            counts = self._simulator.report.hazards
            counts[hazard.kind] = counts.get(hazard.kind, 0) + 1
