"""Ports, port references, immediates, and guards — the vocabulary of moves.

In a transport-triggered architecture the *only* instruction is a move
between ports. A port belongs to a functional unit and is one of:

* ``OPERAND`` — input latch; writing stores a value for the next operation;
* ``TRIGGER`` — input latch whose write *starts* the operation;
* ``RESULT`` — output latch the FU deposits results into;
* ``REGISTER`` — general-purpose storage, readable and writable (the GPR
  file's ports, and internal NC destinations).

Moves name ports with :class:`PortRef`; literal sources are
:class:`Immediate`. A move may carry a :class:`Guard`, which predicates it
on the 1-bit result signal an FU drives into the interconnection network
controller (the paper's Matcher/Comparator/Counter → NC wires).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union

from repro.errors import TtaError

WORD_MASK = 0xFFFFFFFF
"""TACO uses a 32-bit datapath; all port values are 32-bit words."""


class PortKind(Enum):
    OPERAND = "operand"
    TRIGGER = "trigger"
    RESULT = "result"
    REGISTER = "register"


class Port:
    """A named latch on a functional unit."""

    __slots__ = ("name", "kind", "value", "valid_from_cycle",
                 "is_readable", "is_writable", "is_trigger")

    def __init__(self, name: str, kind: PortKind):
        self.name = name
        self.kind = kind
        self.value = 0
        #: first cycle at which the current value may legitimately be read;
        #: the simulator flags premature result reads with this.
        self.valid_from_cycle = 0
        # The kind never changes, so the simulator's per-move checks read
        # these flags instead of re-deriving them.
        self.is_readable = kind in (PortKind.RESULT, PortKind.REGISTER)
        self.is_writable = kind in (PortKind.OPERAND, PortKind.TRIGGER,
                                    PortKind.REGISTER)
        self.is_trigger = kind is PortKind.TRIGGER

    def __repr__(self) -> str:
        return f"Port({self.name!r}, {self.kind.value}, value={self.value:#x})"


@dataclass(frozen=True)
class PortRef:
    """``fu.port`` — a source or destination of a move."""

    fu: str
    port: str

    def __str__(self) -> str:
        return f"{self.fu}.{self.port}"


@dataclass(frozen=True)
class Immediate:
    """A literal move source (a long immediate in the instruction word)."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= WORD_MASK:
            raise TtaError(f"immediate out of 32-bit range: {self.value:#x}")

    def __str__(self) -> str:
        return f"#{self.value:#x}" if self.value > 9 else f"#{self.value}"


Source = Union[PortRef, Immediate]


@dataclass(frozen=True)
class Guard:
    """Predicate on an FU's 1-bit result signal; ``negate`` inverts it."""

    fu: str
    negate: bool = False

    def __str__(self) -> str:
        return f"!{self.fu}?" if self.negate else f"{self.fu}?"


def truncate(value: int) -> int:
    """Wrap an arbitrary integer onto the 32-bit datapath."""
    return value & WORD_MASK
