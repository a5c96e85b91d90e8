"""Line cards: the router's network interfaces.

"Each network card contains a set of independent input and output
registers that can be read and written by the processor. The line cards
deal with implementing the [link] protocol ... provide fully assembled
decapsulated IPv6 datagrams to the processor, take care of fragmentation
and encapsulation of outgoing datagrams" (paper §3).

We model exactly that contract: the receive side is a bounded queue of
complete datagram byte images; the transmit side collects what the router
hands over. Link-layer concerns (framing, ARP/NDP) stay inside the card,
as they do in the paper's commercial cards.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import ReproError

DEFAULT_QUEUE_DEPTH = 64


class LineCard:
    """One network interface with bounded input buffering."""

    def __init__(self, index: int, queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if index < 0:
            raise ReproError(f"negative line card index: {index}")
        if queue_depth < 1:
            raise ReproError(f"queue depth must be positive: {queue_depth}")
        self.index = index
        self.queue_depth = queue_depth
        self._input: Deque[bytes] = deque()
        self.transmitted: List[bytes] = []
        self.received_count = 0
        self.dropped_count = 0
        self.peak_depth = 0

    # -- network side -------------------------------------------------------------

    def deliver(self, datagram: bytes) -> bool:
        """A datagram arrives from the wire; False = tail-dropped."""
        if len(self._input) >= self.queue_depth:
            self.dropped_count += 1
            return False
        self._input.append(datagram)
        self.received_count += 1
        if len(self._input) > self.peak_depth:
            self.peak_depth = len(self._input)
        return True

    # -- processor side -----------------------------------------------------------

    def has_pending_input(self) -> bool:
        return bool(self._input)

    def pending_depth(self) -> int:
        return len(self._input)

    @property
    def input_queue(self) -> Deque[bytes]:
        """The live receive queue, for watchers that must not poll every
        card; it is never rebound, so a held reference sees every later
        delivery and pop. Mutate it only through :meth:`deliver` and
        :meth:`pop_input`."""
        return self._input

    def pop_input(self) -> Optional[bytes]:
        """The ippu pulls the next pending datagram (None when empty)."""
        if self._input:
            return self._input.popleft()
        return None

    def transmit(self, datagram: bytes) -> None:
        """The oppu hands a finished datagram to the card for encapsulation."""
        self.transmitted.append(datagram)

    def __repr__(self) -> str:
        return (f"<LineCard #{self.index} pending={len(self._input)} "
                f"tx={len(self.transmitted)} dropped={self.dropped_count}>")
