"""Memory-slot management shared by the ippu and oppu DMA engines.

The paper's router copies each whole datagram into main memory and passes
pointers between the preprocessing unit, the program, and the
postprocessing unit. The :class:`SlotPool` models the fixed-size buffer
slots that make this possible without a heap: each slot stores
``[length_bytes, input_interface, payload...]``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TtaError
from repro.tta.memory import DataMemory

SLOT_HEADER_WORDS = 2
#: slot word 0 = datagram length in bytes, word 1 = arrival interface

DEFAULT_SLOT_BYTES = 2048
DEFAULT_SLOT_COUNT = 32


class SlotPool:
    """Fixed-size datagram buffers carved out of data memory."""

    def __init__(self, memory: DataMemory, base_word: int = 0x1000,
                 slot_bytes: int = DEFAULT_SLOT_BYTES,
                 slot_count: int = DEFAULT_SLOT_COUNT):
        if slot_bytes % 4:
            raise TtaError(f"slot size must be word aligned: {slot_bytes}")
        if slot_count < 1:
            raise TtaError(f"need at least one slot: {slot_count}")
        self.memory = memory
        self.base_word = base_word
        self.slot_words = SLOT_HEADER_WORDS + slot_bytes // 4
        self.slot_bytes = slot_bytes
        self.slot_count = slot_count
        end = base_word + self.slot_words * slot_count
        if end > len(memory):
            raise TtaError(
                f"slot pool [{base_word}, {end}) exceeds memory "
                f"({len(memory)} words)")
        self._free: List[int] = [base_word + i * self.slot_words
                                 for i in range(slot_count)]
        self.exhaustion_events = 0

    def allocate(self) -> Optional[int]:
        if not self._free:
            self.exhaustion_events += 1
            return None
        return self._free.pop()

    def release(self, slot_address: int) -> None:
        offset = slot_address - self.base_word
        if offset % self.slot_words or not (
                0 <= offset // self.slot_words < self.slot_count):
            raise TtaError(f"not a slot address: {slot_address:#x}")
        if slot_address in self._free:
            raise TtaError(f"double release of slot {slot_address:#x}")
        self._free.append(slot_address)

    def free_count(self) -> int:
        return len(self._free)

    # -- datagram storage ----------------------------------------------------------

    def store_datagram(self, slot_address: int, datagram: bytes,
                       interface: int) -> None:
        if len(datagram) > self.slot_bytes:
            raise TtaError(
                f"datagram of {len(datagram)} bytes exceeds slot size "
                f"{self.slot_bytes}")
        self.memory.store(slot_address, len(datagram))
        self.memory.store(slot_address + 1, interface)
        self.memory.write_bytes(slot_address + SLOT_HEADER_WORDS, datagram)

    def load_datagram(self, slot_address: int) -> bytes:
        length = self.memory.load(slot_address)
        return self.memory.read_bytes(slot_address + SLOT_HEADER_WORDS, length)
