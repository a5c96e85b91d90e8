"""Program and data memories of the TACO processor.

Data memory is word-addressed with a 32-bit word, matching the datapath.
Datagrams are stored packed big-endian, so the IPv6 header fields the FUs
manipulate fall on natural word boundaries (version/class/flow in word 0,
payload length + next header + hop limit in word 1, source address in
words 2–5, destination address in words 6–9).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import SimulationError, TtaError
from repro.tta.instruction import Instruction
from repro.tta.ports import truncate


class DataMemory:
    """Flat word-addressed RAM with byte-block helpers for datagrams."""

    def __init__(self, words: int = 1 << 16):
        if words < 1:
            raise TtaError(f"memory size must be positive: {words}")
        self._words: List[int] = [0] * words
        self.reads = 0
        self.writes = 0

    def __len__(self) -> int:
        return len(self._words)

    def load(self, address: int) -> int:
        self._check(address)
        self.reads += 1
        return self._words[address]

    def store(self, address: int, value: int) -> None:
        self._check(address)
        self.writes += 1
        self._words[address] = truncate(value)

    def _check(self, address: int) -> None:
        if not 0 <= address < len(self._words):
            raise SimulationError(
                f"data memory access out of range: {address:#x} "
                f"(size {len(self._words)} words)")

    # -- block helpers (DMA by the ippu/oppu, test setup) ------------------------

    def write_bytes(self, word_address: int, data: bytes) -> None:
        """Pack *data* big-endian from *word_address*; pads the tail word."""
        padded = data + b"\x00" * (-len(data) % 4)
        for i in range(0, len(padded), 4):
            self.store(word_address + i // 4, int.from_bytes(padded[i:i + 4], "big"))

    def read_bytes(self, word_address: int, length: int) -> bytes:
        words_needed = (length + 3) // 4
        chunks = [self.load(word_address + i).to_bytes(4, "big")
                  for i in range(words_needed)]
        return b"".join(chunks)[:length]


class ProgramMemory:
    """Read-only instruction store, one :class:`Instruction` per address."""

    def __init__(self, instructions: Sequence[Instruction]):
        if not instructions:
            raise TtaError("program must contain at least one instruction")
        widths = {i.width for i in instructions}
        if len(widths) != 1:
            raise TtaError(f"inconsistent instruction widths: {sorted(widths)}")
        self._instructions = tuple(instructions)

    @property
    def width(self) -> int:
        return self._instructions[0].width

    def __len__(self) -> int:
        return len(self._instructions)

    def fetch(self, address: int) -> Instruction:
        if not 0 <= address < len(self._instructions):
            raise SimulationError(
                f"program counter out of range: {address} "
                f"(program has {len(self._instructions)} instructions)")
        return self._instructions[address]

    def __iter__(self):
        return iter(self._instructions)
