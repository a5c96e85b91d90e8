"""Input preprocessing unit (ippu).

"The Preprocessing Unit scans the input buffers for new datagrams. If a
datagram is pending it is stored in the main memory. A pointer to the
memory address where the datagram was stored is saved in a queue, along
with the interface identifier of the input buffer. ... It also provides a
1-bit signal connected to the Interconnection Network Controller to notify
it of new entries pending in the queue" (paper §3).

The DMA engine runs autonomously in :meth:`tick`: one datagram per cycle is
moved from a line card into a free memory slot (round-robin over cards).
The program consumes the queue with ``t_pop``, which latches the head's
pointer and interface onto ``r_ptr``/``r_iface``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence, Tuple

from repro.errors import SimulationError
from repro.router.linecard import LineCard
from repro.tta.devices import SlotPool
from repro.tta.fu import FunctionalUnit
from repro.tta.ports import PortKind


class InputPreprocessingUnit(FunctionalUnit):
    kind = "ippu"

    def __init__(self, name: str, line_cards: Sequence[LineCard],
                 slots: SlotPool):
        self.line_cards = list(line_cards)
        #: the cards' live receive queues, so an idle tick is one any()
        self._inputs = tuple(card.input_queue for card in self.line_cards)
        self.slots = slots
        self._queue: Deque[Tuple[int, int]] = deque()  # (slot ptr, iface)
        self._scan_index = 0
        self.datagrams_admitted = 0
        self.stalls_no_slot = 0
        super().__init__(name)

    def _declare_ports(self) -> None:
        self.add_port("t_pop", PortKind.TRIGGER)
        self.add_port("r_ptr", PortKind.RESULT)
        self.add_port("r_iface", PortKind.RESULT)

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        if not self._queue:
            raise SimulationError(
                f"cycle {cycle}: ippu popped with an empty queue "
                f"(guard on the ippu result bit before popping)")
        ptr, iface = self._queue.popleft()
        self.finish(cycle, {"r_ptr": ptr, "r_iface": iface})

    def tick(self, cycle: int) -> None:
        if any(self._inputs):
            self._admit_one()
        # The NC-visible "entries pending" wire reflects queue occupancy,
        # except a completion already scheduled by t_pop wins at commit.
        self.result_bit = bool(self._queue)

    def _admit_one(self) -> None:
        """Autonomous DMA: admit at most one pending datagram, scanning
        the cards round-robin from the one after the last admission."""
        for offset in range(len(self.line_cards)):
            card = self.line_cards[(self._scan_index + offset) % len(self.line_cards)]
            if not card.has_pending_input():
                continue
            slot = self.slots.allocate()
            if slot is None:
                self.stalls_no_slot += 1
                break
            datagram = card.pop_input()
            assert datagram is not None
            self.slots.store_datagram(slot, datagram, card.index)
            self._queue.append((slot, card.index))
            self.datagrams_admitted += 1
            self._scan_index = (card.index + 1) % len(self.line_cards)
            break

    def pending(self) -> int:
        return len(self._queue)

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._scan_index = 0
        self.datagrams_admitted = 0
        self.stalls_no_slot = 0
