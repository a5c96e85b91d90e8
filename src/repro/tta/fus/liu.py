"""Local Info Unit (LIU): the router's own identity and configuration.

Appears in the paper's architecture diagram (Fig. 2). Holds small indexed
configuration words — the router's interface addresses (as 32-bit words),
interface count, and flags — so programs can ask "is this datagram
addressed to me?" without memory traffic.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SimulationError
from repro.tta.fu import FunctionalUnit
from repro.tta.ports import PortKind


class LocalInfoUnit(FunctionalUnit):
    kind = "liu"

    def __init__(self, name: str, words: Sequence[int] = ()):
        self._words = list(words)
        super().__init__(name)

    def _declare_ports(self) -> None:
        self.add_port("o_idx", PortKind.OPERAND)
        self.add_port("t_get", PortKind.TRIGGER)  # value = index
        self.add_port("t_set", PortKind.TRIGGER)  # value = data, index = o_idx
        self.add_port("r", PortKind.RESULT)

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        if trigger_port == "t_get":
            if not 0 <= value < len(self._words):
                raise SimulationError(
                    f"cycle {cycle}: LIU index {value} out of range "
                    f"({len(self._words)} words configured)")
            self.finish(cycle, {"r": self._words[value]}, result_bit=True)
        elif trigger_port == "t_set":
            index = self.operand("o_idx")
            if not 0 <= index < len(self._words):
                raise SimulationError(
                    f"cycle {cycle}: LIU index {index} out of range")
            self._words[index] = value
            self.finish(cycle, {}, result_bit=True)
        else:
            raise SimulationError(f"unknown LIU trigger {trigger_port!r}")
