"""Functional-unit framework: trigger semantics, latency, result signals.

Timing contract (shared with :mod:`repro.tta.simulator`):

* During cycle *k* the simulator executes the moves of one instruction.
  Sources are read as of the start of the cycle; writes are applied in bus
  order, so an operand move on a lower-numbered bus is visible to a trigger
  on a higher-numbered bus of the same instruction (operands and trigger
  latch on the same clock edge in hardware).
* A trigger in cycle *k* on an FU with latency *L* makes its results (and
  its NC result bit) readable from cycle *k + L*.
* :meth:`FunctionalUnit.finish` applies a latency-1 completion at the
  trigger, during cycle *k*'s write phase, unless the FU still has an
  older completion pending, or the completion carries a result bit and
  the FU overrides :meth:`tick` (which may drive that bit). Nothing reads
  a port or a guard bit between the write phase and the start of cycle
  *k + 1* except a ``tick`` (no stock ``_execute`` reads a result port),
  so this is indistinguishable from applying it then. Every other
  completion is queued, and the simulator commits it at the start of the
  cycle it matures in; of the stock units, only the CAM RTU's
  multi-cycle searches and the oppu's result bits get there.
* The paper's FUs all have ``latency = 1`` ("each FU has been designed to
  complete the execution of its function in one clock cycle"); only the
  CAM routing-table unit deviates, because its 40 ns search is a wall-clock
  constant independent of the processor clock.
* A *pipelined* FU accepts a trigger every cycle. A non-pipelined FU that
  is re-triggered while busy raises a structural-hazard error — the
  scheduler must never produce such code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError, TtaError
from repro.tta.ports import WORD_MASK, Port, PortKind


class FunctionalUnit:
    """Base class for all TACO functional units."""

    #: FU type identifier ("counter", "matcher"...); instances get names
    #: like "cnt0", "cnt1".
    kind: str = "fu"
    latency: int = 1
    pipelined: bool = True

    def __init__(self, name: str):
        self.name = name
        self.ports: Dict[str, Port] = {}
        #: the 1-bit wire into the interconnection network controller
        self.result_bit = False
        self.trigger_count = 0
        self._pending: List[Tuple[int, Dict[str, int], Optional[bool]]] = []
        #: whether this class has a real (non-base) :meth:`tick`
        self.overrides_tick = type(self).tick is not FunctionalUnit.tick
        self._busy_until = 0
        self._declare_ports()

    # -- subclass interface ----------------------------------------------------

    def _declare_ports(self) -> None:
        """Subclasses create their ports here via :meth:`add_port`."""

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        """Perform the operation started by writing *trigger_port*.

        Implementations normally call :meth:`finish` to schedule results.
        """
        raise NotImplementedError

    # -- port management ---------------------------------------------------------

    def add_port(self, name: str, kind: PortKind) -> Port:
        if name in self.ports:
            raise TtaError(f"duplicate port {name!r} on {self.name}")
        port = Port(name, kind)
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise TtaError(f"no port {name!r} on FU {self.name!r} "
                           f"(has {sorted(self.ports)})") from None

    def operand(self, name: str) -> int:
        """Convenience for subclasses reading an operand latch."""
        return self.ports[name].value

    # -- simulator interface ------------------------------------------------------

    def write(self, port_name: str, value: int, cycle: int) -> None:
        """A move deposits *value* into a port during *cycle*."""
        self.write_port(self.port(port_name), value, cycle)

    def write_port(self, port: Port, value: int, cycle: int) -> None:
        """:meth:`write` for a port of this FU its caller already holds."""
        if not port.is_writable:
            raise SimulationError(
                f"cycle {cycle}: move writes read-only port {self.name}.{port.name}")
        value = port.value = value & WORD_MASK
        if port.is_trigger:
            if not self.pipelined and cycle < self._busy_until:
                raise SimulationError(
                    f"cycle {cycle}: structural hazard — {self.name} busy "
                    f"until cycle {self._busy_until}")
            self.trigger_count += 1
            self._busy_until = cycle + self.latency
            self._execute(port.name, value, cycle)

    def read(self, port_name: str, cycle: int) -> int:
        port = self.port(port_name)
        if not port.is_readable:
            raise SimulationError(
                f"cycle {cycle}: move reads write-only port {self.name}.{port_name}")
        if cycle < port.valid_from_cycle:
            raise SimulationError(
                f"cycle {cycle}: {self.name}.{port_name} not valid until "
                f"cycle {port.valid_from_cycle}")
        return port.value

    def finish(self, cycle: int, results: Dict[str, int],
               result_bit: Optional[bool] = None,
               latency: Optional[int] = None) -> None:
        """Schedule *results* to appear ``latency`` cycles after *cycle*."""
        ready = cycle + (self.latency if latency is None else latency)
        if ready == cycle + 1 and not self._pending and \
                (result_bit is None or not self.overrides_tick):
            # Eager: see the timing contract in the module docstring.
            self._apply(ready, results, result_bit)
            return
        # Mark the affected result ports in-flight right away, so the
        # simulator flags a read issued before the operation completes.
        for port_name in results:
            port = self.port(port_name)
            port.valid_from_cycle = max(port.valid_from_cycle, ready)
        self._pending.append((ready, results, result_bit))

    def commit(self, cycle: int) -> None:
        """Apply queued completions that mature at or before *cycle*
        (call at cycle start)."""
        if not self._pending:
            return
        remaining = []
        # Apply in schedule order so a newer completion overwrites an older one.
        for ready, results, bit in self._pending:
            if ready <= cycle:
                self._apply(ready, results, bit)
            else:
                remaining.append((ready, results, bit))
        self._pending = remaining

    def _apply(self, ready: int, results: Dict[str, int],
               bit: Optional[bool]) -> None:
        """Make one completion's results and result bit visible."""
        for port_name, value in results.items():
            port = self.port(port_name)
            port.value = value & WORD_MASK
            port.valid_from_cycle = ready
        if bit is not None:
            self.result_bit = bit

    def in_flight(self, cycle: int) -> bool:
        """True while an operation triggered earlier has not completed."""
        return cycle < self._busy_until

    def tick(self, cycle: int) -> None:
        """End-of-cycle hook for autonomous units (ippu/oppu DMA engines)."""

    def reset(self) -> None:
        for port in self.ports.values():
            port.value = 0
            port.valid_from_cycle = 0
        self.result_bit = False
        self.trigger_count = 0
        self._pending.clear()
        self._busy_until = 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class RegisterFileUnit(FunctionalUnit):
    """A general-purpose register file exposed as readable/writable ports.

    The paper's architecture (Fig. 2) includes a register block on the
    interconnection network; TTA optimisations like operand sharing use it.
    """

    kind = "gpr"

    def __init__(self, name: str, count: int = 8):
        if count < 1:
            raise TtaError(f"register count must be positive: {count}")
        self.count = count
        super().__init__(name)

    def _declare_ports(self) -> None:
        for i in range(self.count):
            self.add_port(f"r{i}", PortKind.REGISTER)

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        raise SimulationError("register file has no trigger ports")
