"""TTA instructions: one move slot per bus.

"TTAs are in essence one instruction processors, as instructions only
specify data moves between functional units. The maximum number of
instructions (i.e. data transports) that can be carried out in one clock
cycle is equal to the number of data buses" (paper §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import TtaError
from repro.tta.ports import Guard, Immediate, PortRef, Source


@dataclass(frozen=True)
class Move:
    """One data transport: ``[guard] source -> destination``."""

    source: Source
    destination: PortRef
    guard: Optional[Guard] = None

    def __post_init__(self) -> None:
        if not isinstance(self.destination, PortRef):
            raise TtaError(
                f"move destination must be a port, got {self.destination!r}")
        if not isinstance(self.source, (PortRef, Immediate)):
            raise TtaError(
                f"move source must be a port or immediate, got {self.source!r}")

    def __str__(self) -> str:
        guard = f"{self.guard} " if self.guard else ""
        return f"{guard}{self.source} -> {self.destination}"


@dataclass(frozen=True)
class Instruction:
    """The moves issued in one cycle; index in *moves* = bus number.

    ``None`` slots are idle buses. The schedule keeps explicit slots so bus
    utilisation can be measured exactly as the paper reports it.
    """

    moves: Tuple[Optional[Move], ...]

    def __post_init__(self) -> None:
        if not self.moves:
            raise TtaError("instruction must have at least one bus slot")
        destinations = [m.destination for m in self.moves if m is not None]
        if len(destinations) != len(set(destinations)):
            raise TtaError(
                f"two moves write the same port in one instruction: {self}")

    @classmethod
    def of(cls, moves: Sequence[Optional[Move]], width: int) -> "Instruction":
        """Build an instruction padded (or validated) to *width* slots."""
        slots = list(moves)
        if len(slots) > width:
            raise TtaError(
                f"{len(slots)} moves do not fit on {width} buses")
        slots.extend([None] * (width - len(slots)))
        return cls(moves=tuple(slots))

    @property
    def width(self) -> int:
        return len(self.moves)

    def __str__(self) -> str:
        slots = [str(m) if m else "..." for m in self.moves]
        return " ; ".join(slots)


def nop(width: int) -> Instruction:
    return Instruction(moves=(None,) * width)
