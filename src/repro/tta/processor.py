"""The TACO processor: FUs + interconnect + memories, wired together."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.errors import ConfigurationError, TtaError
from repro.tta.bus import Interconnect
from repro.tta.controller import NC_NAME, NetworkController
from repro.tta.fu import FunctionalUnit
from repro.tta.memory import DataMemory, ProgramMemory
from repro.tta.ports import PortRef


class TacoProcessor:
    """A concrete TACO architecture instance.

    Construction wires functional units onto an interconnection network and
    attaches data memory; the program is supplied per run via
    :class:`~repro.tta.simulator.Simulator`. FUs are addressed by instance
    name (``cnt0``, ``mat2``...); the network controller is always present
    under the name ``nc``.
    """

    def __init__(self, interconnect: Interconnect,
                 functional_units: Iterable[FunctionalUnit],
                 data_memory: Optional[DataMemory] = None):
        self.interconnect = interconnect
        self.data_memory = data_memory if data_memory is not None else DataMemory()
        self.nc = NetworkController()
        self.fus: Dict[str, FunctionalUnit] = {NC_NAME: self.nc}
        for fu in functional_units:
            if fu.name in self.fus:
                raise ConfigurationError(f"duplicate FU name {fu.name!r}")
            self.fus[fu.name] = fu
        #: names of the FUs with queued completions, in no order; each
        #: FU keeps its own name current (see :mod:`repro.tta.fu`)
        self.queued_units: Set[str] = set()
        for fu in self.fus.values():
            fu.share_queued_units(self.queued_units)

    # -- lookup -----------------------------------------------------------------

    def fu(self, name: str) -> FunctionalUnit:
        try:
            return self.fus[name]
        except KeyError:
            raise TtaError(
                f"no functional unit {name!r} (has {sorted(self.fus)})") from None

    def resolve(self, ref: PortRef):
        """(fu, port) for a port reference, validating both names."""
        fu = self.fu(ref.fu)
        return fu, fu.port(ref.port)

    def validate_program(self, program: ProgramMemory) -> None:
        """Static checks: ports exist, connectivity allows every move."""
        if program.width != self.interconnect.bus_count:
            raise ConfigurationError(
                f"program is {program.width} slots wide but the processor "
                f"has {self.interconnect.bus_count} buses")
        for address, instruction in enumerate(program):
            for bus_index, move in enumerate(instruction.moves):
                if move is None:
                    continue
                self.resolve(move.destination)
                source_ref = move.source if isinstance(move.source, PortRef) else None
                if source_ref is not None:
                    self.resolve(source_ref)
                if move.guard is not None:
                    self.fu(move.guard.fu)
                if not self.interconnect.allows(bus_index, source_ref,
                                                move.destination):
                    raise ConfigurationError(
                        f"instruction {address}: move {move} cannot use "
                        f"bus {bus_index} (socket connectivity)")

    def reset(self) -> None:
        for fu in self.fus.values():
            fu.reset()

    @property
    def bus_count(self) -> int:
        return self.interconnect.bus_count

    def __repr__(self) -> str:
        kinds: Dict[str, int] = {}
        for fu in self.fus.values():
            kinds[fu.kind] = kinds.get(fu.kind, 0) + 1
        inventory = ", ".join(f"{n}x{k}" for k, n in sorted(kinds.items()))
        return f"<TacoProcessor {self.bus_count} buses; {inventory}>"
