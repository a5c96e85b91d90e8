"""Binary instruction encoding for TACO programs.

"TTAs are in essence one instruction processors ... the instruction word
of any TTA processor consists mostly of source and destination addresses"
(paper §1). This module derives, per architecture instance, the concrete
move-slot format:

``[guard | destination address | immediate flag | source address/immediate]``

* the guard field enumerates "always" plus the true/negated forms of
  every FU result bit wired to the network controller;
* destination addresses enumerate every writable port (operand, trigger,
  register, plus the NC's pc/halt destinations);
* source addresses enumerate every readable port (results, registers);
  with the immediate flag set, the source field carries a literal.

The immediate field is kept at a full 32 bits, so the slot width here is
an *upper bound* on what a production TACO packs (short-immediate
optimisation would shrink it); the encoder's purpose is an exact,
reversible machine representation plus a program-store size the physical
estimation can price.

The instruction word is ``bus_count`` slots side by side, one per bus,
with an all-ones destination denoting an idle slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import AssemblyError
from repro.tta.instruction import Instruction, Move
from repro.tta.ports import Guard, Immediate, PortRef
from repro.tta.processor import TacoProcessor

IMMEDIATE_BITS = 32


def _bits_for(count: int) -> int:
    if count <= 1:
        return 1
    return (count - 1).bit_length()


@dataclass(frozen=True)
class EncodingScheme:
    """The move-slot format of one architecture instance."""

    sources: Tuple[PortRef, ...]
    destinations: Tuple[PortRef, ...]
    guards: Tuple[Optional[Guard], ...]  # index 0 = unconditional
    bus_count: int

    # -- construction ---------------------------------------------------------------

    @classmethod
    def for_processor(cls, processor: TacoProcessor) -> "EncodingScheme":
        sources: List[PortRef] = []
        destinations: List[PortRef] = []
        guards: List[Optional[Guard]] = [None]
        for name in sorted(processor.fus):
            fu = processor.fus[name]
            for port_name in sorted(fu.ports):
                port = fu.ports[port_name]
                ref = PortRef(name, port_name)
                if port.is_readable:
                    sources.append(ref)
                if port.is_writable:
                    destinations.append(ref)
            guards.append(Guard(name, negate=False))
            guards.append(Guard(name, negate=True))
        return cls(sources=tuple(sources), destinations=tuple(destinations),
                   guards=tuple(guards), bus_count=processor.bus_count)

    # -- geometry -------------------------------------------------------------------

    @property
    def guard_bits(self) -> int:
        return _bits_for(len(self.guards))

    @property
    def destination_bits(self) -> int:
        # one extra code for the idle slot (all ones)
        return _bits_for(len(self.destinations) + 1)

    @property
    def source_bits(self) -> int:
        return 1 + max(_bits_for(len(self.sources)), IMMEDIATE_BITS)

    @property
    def slot_bits(self) -> int:
        return self.guard_bits + self.destination_bits + self.source_bits

    @property
    def instruction_bits(self) -> int:
        return self.slot_bits * self.bus_count

    def program_bytes(self, instruction_count: int) -> int:
        """Program-store footprint, rounded up to whole bytes per word."""
        word_bytes = (self.instruction_bits + 7) // 8
        return word_bytes * instruction_count

    # -- encoding -------------------------------------------------------------------

    def encode_move(self, move: Optional[Move]) -> int:
        idle_destination = (1 << self.destination_bits) - 1
        if move is None:
            return idle_destination << self.source_bits
        try:
            guard_code = self.guards.index(move.guard)
        except ValueError:
            raise AssemblyError(f"unencodable guard {move.guard}") from None
        try:
            destination_code = self.destinations.index(move.destination)
        except ValueError:
            raise AssemblyError(
                f"unencodable destination {move.destination}") from None
        if isinstance(move.source, Immediate):
            source_code = (1 << (self.source_bits - 1)) | move.source.value
        else:
            try:
                source_code = self.sources.index(move.source)
            except ValueError:
                raise AssemblyError(
                    f"unencodable source {move.source}") from None
        word = guard_code
        word = (word << self.destination_bits) | destination_code
        word = (word << self.source_bits) | source_code
        return word

    def decode_move(self, word: int) -> Optional[Move]:
        source_mask = (1 << self.source_bits) - 1
        destination_mask = (1 << self.destination_bits) - 1
        source_code = word & source_mask
        destination_code = (word >> self.source_bits) & destination_mask
        guard_code = word >> (self.source_bits + self.destination_bits)
        if destination_code == destination_mask:
            return None
        if destination_code >= len(self.destinations):
            raise AssemblyError(f"bad destination code {destination_code}")
        if guard_code >= len(self.guards):
            raise AssemblyError(f"bad guard code {guard_code}")
        if source_code >> (self.source_bits - 1):
            source = Immediate(source_code & ((1 << IMMEDIATE_BITS) - 1))
        else:
            if source_code >= len(self.sources):
                raise AssemblyError(f"bad source code {source_code}")
            source = self.sources[source_code]
        return Move(source=source,
                    destination=self.destinations[destination_code],
                    guard=self.guards[guard_code])

    def encode_instruction(self, instruction: Instruction) -> int:
        if instruction.width != self.bus_count:
            raise AssemblyError(
                f"instruction is {instruction.width} slots wide, scheme "
                f"expects {self.bus_count}")
        word = 0
        for move in instruction.moves:
            word = (word << self.slot_bits) | self.encode_move(move)
        return word

    def decode_instruction(self, word: int) -> Instruction:
        slot_mask = (1 << self.slot_bits) - 1
        slots: List[Optional[Move]] = []
        for i in reversed(range(self.bus_count)):
            slots.append(self.decode_move((word >> (i * self.slot_bits))
                                          & slot_mask))
        return Instruction(moves=tuple(slots))
