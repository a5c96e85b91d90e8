"""Output postprocessing unit (oppu).

"The PostProcessing Unit manages the output traffic of the router. The
unit contains an internal queue in which pointers to memory addresses of
the datagrams to be sent are stored along with the output interface
identifier. The oppu interrogates its internal queue and for each entry it
moves the corresponding datagram from the data memory to the specified
output buffer" (paper §3).

Protocol: the program latches the slot pointer into ``o_ptr`` and triggers
``t_send`` with the output interface index. The DMA drain in :meth:`tick`
moves one datagram per cycle to its line card and releases the slot.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence, Tuple

from repro.errors import SimulationError
from repro.router.linecard import LineCard
from repro.tta.devices import SlotPool
from repro.tta.fu import FunctionalUnit
from repro.tta.ports import PortKind


class OutputPostprocessingUnit(FunctionalUnit):
    kind = "oppu"

    def __init__(self, name: str, line_cards: Sequence[LineCard],
                 slots: SlotPool):
        self.line_cards = list(line_cards)
        self.slots = slots
        self._queue: Deque[Tuple[int, int]] = deque()  # (slot ptr, iface)
        self.datagrams_sent = 0
        #: slots handed to the slow path (control plane); the host drains
        #: this list and releases the slots when done
        self.punted: Deque[int] = deque()
        super().__init__(name)

    def _declare_ports(self) -> None:
        self.add_port("o_ptr", PortKind.OPERAND)
        self.add_port("t_send", PortKind.TRIGGER)  # value = output interface
        self.add_port("t_drop", PortKind.TRIGGER)  # free the slot, send nothing
        self.add_port("t_punt", PortKind.TRIGGER)  # hand slot to the slow path

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        pointer = self.operand("o_ptr")
        if trigger_port == "t_send":
            if not 0 <= value < len(self.line_cards):
                raise SimulationError(
                    f"cycle {cycle}: oppu told to send on nonexistent "
                    f"interface {value}")
            self._queue.append((pointer, value))
            self.finish(cycle, {}, result_bit=True)
        elif trigger_port == "t_drop":
            self.slots.release(pointer)
            self.finish(cycle, {}, result_bit=False)
        elif trigger_port == "t_punt":
            self.punted.append(pointer)
            self.finish(cycle, {}, result_bit=False)
        else:
            raise SimulationError(f"unknown oppu trigger {trigger_port!r}")

    def tick(self, cycle: int) -> None:
        if not self._queue:
            return
        pointer, iface = self._queue.popleft()
        datagram = self.slots.load_datagram(pointer)
        self.line_cards[iface].transmit(datagram)
        self.slots.release(pointer)
        self.datagrams_sent += 1

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self.punted.clear()
        self.datagrams_sent = 0
