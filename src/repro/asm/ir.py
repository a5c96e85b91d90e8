"""Sequential move IR: the compiler-facing program representation.

The paper's code-generation story (§3, Fig. 3): application code is a
sequence of data moves; optimisation "reduces in fact to well-known bus
scheduling and registry allocation problems". This module gives the moves
a sequential (one-per-line) form organised into labelled basic blocks; the
scheduler in :mod:`repro.asm.scheduler` packs them onto buses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AssemblyError
from repro.tta.instruction import Move
from repro.tta.ports import Guard, Immediate, PortRef


@dataclass(frozen=True)
class SymbolicMove:
    """A move whose jump targets may still be labels.

    ``label_target`` is set (and ``source`` is None) for moves whose source
    is the address of a label — i.e. jumps ``label -> nc.pc``. The
    assembler resolves these to immediates once addresses are known.
    """

    destination: PortRef
    source: Optional[object] = None  # PortRef | Immediate
    label_target: Optional[str] = None
    guard: Optional[Guard] = None

    def __post_init__(self) -> None:
        has_source = self.source is not None
        has_label = self.label_target is not None
        if has_source == has_label:
            raise AssemblyError(
                "move needs exactly one of a source or a label target")

    def resolved(self, labels: Dict[str, int]) -> Move:
        if self.label_target is not None:
            try:
                address = labels[self.label_target]
            except KeyError:
                raise AssemblyError(
                    f"undefined label {self.label_target!r}") from None
            return Move(source=Immediate(address), destination=self.destination,
                        guard=self.guard)
        return Move(source=self.source, destination=self.destination,  # type: ignore[arg-type]
                    guard=self.guard)

    def __str__(self) -> str:
        guard = f"{self.guard} " if self.guard else ""
        source = f"@{self.label_target}" if self.label_target else str(self.source)
        return f"{guard}{source} -> {self.destination}"


@dataclass
class BasicBlock:
    """A labelled straight-line run of moves.

    Control leaves a block only via moves to ``nc.pc``/``nc.halt`` (which
    the scheduler keeps in order relative to each other and anchors at the
    block end region) or by falling through to the next block.
    """

    label: str
    moves: List[SymbolicMove] = field(default_factory=list)

    def append(self, move: SymbolicMove) -> None:
        self.moves.append(move)

    def __len__(self) -> int:
        return len(self.moves)

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"    {m}" for m in self.moves)
        return "\n".join(lines)


@dataclass
class IrProgram:
    """An ordered collection of basic blocks with unique labels."""

    blocks: List[BasicBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        labels = [b.label for b in self.blocks]
        if len(labels) != len(set(labels)):
            raise AssemblyError(f"duplicate block labels in {labels}")

    def block(self, label: str) -> BasicBlock:
        for block in self.blocks:
            if block.label == label:
                return block
        raise AssemblyError(f"no block labelled {label!r}")

    def __str__(self) -> str:
        return "\n".join(str(b) for b in self.blocks)


class ProgramBuilder:
    """Fluent construction of :class:`IrProgram`.

    >>> b = ProgramBuilder()
    >>> b.block("start")
    >>> b.move(Immediate(1), PortRef("shf0", "o"))
    >>> b.jump("start")
    """

    def __init__(self) -> None:
        self._blocks: List[BasicBlock] = []
        self._current: Optional[BasicBlock] = None

    def block(self, label: str) -> "ProgramBuilder":
        if any(b.label == label for b in self._blocks):
            raise AssemblyError(f"duplicate label {label!r}")
        self._current = BasicBlock(label=label)
        self._blocks.append(self._current)
        return self

    def _require_block(self) -> BasicBlock:
        if self._current is None:
            raise AssemblyError("open a block before emitting moves")
        return self._current

    def move(self, source, destination: PortRef,
             guard: Optional[Guard] = None) -> "ProgramBuilder":
        if isinstance(source, int):
            source = Immediate(source)
        self._require_block().append(
            SymbolicMove(source=source, destination=destination, guard=guard))
        return self

    def jump(self, label: str, guard: Optional[Guard] = None) -> "ProgramBuilder":
        self._require_block().append(SymbolicMove(
            destination=PortRef("nc", "pc"), label_target=label, guard=guard))
        return self

    def halt(self, guard: Optional[Guard] = None) -> "ProgramBuilder":
        self._require_block().append(SymbolicMove(
            source=Immediate(0), destination=PortRef("nc", "halt"), guard=guard))
        return self

    def build(self) -> IrProgram:
        if not self._blocks:
            raise AssemblyError("program has no blocks")
        return IrProgram(blocks=list(self._blocks))
