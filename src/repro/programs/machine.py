"""Build a concrete TACO processor for an architecture configuration.

This is the counterpart of the paper's hardware design tool [14] that
generates the top-level model for a chosen configuration: given an
:class:`~repro.dse.config.ArchitectureConfiguration`, a routing table and
line cards, it instantiates the FU inventory of Fig. 2 and wires it to the
interconnection network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dse.config import ArchitectureConfiguration
from repro.router.linecard import LineCard
from repro.routing import make_table
from repro.routing.base import RoutingTable
from repro.routing.entry import RouteEntry
from repro.tta import DataMemory, Interconnect, TacoProcessor
from repro.tta.devices import SlotPool
from repro.tta.fu import RegisterFileUnit
from repro.tta.fus import (
    ChecksumUnit,
    Comparator,
    Counter,
    InputPreprocessingUnit,
    LocalInfoUnit,
    Masker,
    Matcher,
    MemoryManagementUnit,
    OutputPostprocessingUnit,
    RoutingTableUnit,
    Shifter,
)

MEMORY_WORDS = 1 << 17
LINE_CARD_COUNT = 4
TABLE_BASE_WORD = 0x8000
SLOT_BASE_WORD = 0x100


@dataclass
class RouterMachine:
    """A configured processor plus its peripherals, ready to simulate."""

    config: ArchitectureConfiguration
    processor: TacoProcessor
    table: RoutingTable
    rtu: RoutingTableUnit
    ippu: InputPreprocessingUnit
    oppu: OutputPostprocessingUnit
    line_cards: List[LineCard]
    slots: SlotPool
    memory: DataMemory

    control: Optional["ControlPlane"] = None

    def load_routes(self, entries: Sequence[RouteEntry]) -> None:
        self.table.load(list(entries))
        self.rtu.refresh()

    def offered_load(self, interface: int, datagram: bytes) -> bool:
        return self.line_cards[interface].deliver(datagram)

    def transmitted(self, interface: int) -> List[bytes]:
        return self.line_cards[interface].transmitted

    # -- slow path (control plane) ---------------------------------------------------

    def attach_ripng(self, interface_addresses: Sequence["Ipv6Address"]
                     ) -> "RipngEngine":
        """Attach a RIPng engine that consumes punted control datagrams.

        The TACO fast path punts multicast-destined datagrams (RIPng
        arrives on ff02::9) via the oppu; :meth:`process_punted` feeds
        them to the same control plane a software router runs and
        re-materialises the RTU image after any table change — the
        paper's "builds and maintains its routing table" duty.
        """
        from repro.router.ripng_engine import RipngEngine
        from repro.router.router import ControlPlane
        engine = RipngEngine(router_name="taco", table=self.table,
                             interface_count=len(self.line_cards))
        self.control = ControlPlane("taco", interface_addresses,
                                    self.line_cards, engine)
        return engine

    def process_punted(self, now: float = 0.0) -> int:
        """Drain the oppu punt queue through the control plane.

        Returns the number of datagrams processed. Slots are released and
        the RTU memory image refreshed when the table changed. RIPng
        replies leave on the line card the request came in on.
        """
        processed = 0
        table_before = len(self.table), self.table.stats.total_update_steps
        while self.oppu.punted:
            pointer = self.oppu.punted.popleft()
            interface = self.memory.load(pointer + 1)
            raw = self.slots.load_datagram(pointer)
            self.slots.release(pointer)
            processed += 1
            if self.control is not None:
                self.control.deliver_local(interface, raw, now)
        table_after = len(self.table), self.table.stats.total_update_steps
        if processed and table_after != table_before:
            self.rtu.refresh()
        return processed


def build_machine(config: ArchitectureConfiguration,
                  table: Optional[RoutingTable] = None,
                  table_capacity: int = 100,
                  slot_count: int = 64,
                  slot_bytes: int = 2048,
                  connectivity: Optional[dict] = None) -> RouterMachine:
    """Instantiate the full router machine for *config*.

    *connectivity* optionally restricts which buses each FU's sockets
    reach (FU name -> frozenset of bus indices); absent FUs stay fully
    connected. The bus scheduler honours the restriction, so tuned
    programs still assemble — just onto fewer legal slots.
    """
    memory = DataMemory(MEMORY_WORDS)
    line_cards = [LineCard(i) for i in range(LINE_CARD_COUNT)]
    slots = SlotPool(memory, base_word=SLOT_BASE_WORD,
                     slot_bytes=slot_bytes, slot_count=slot_count)
    if table is None:
        table = make_table(config.table_kind, capacity=table_capacity)
    elif table.kind != config.table_kind:
        raise ValueError(
            f"configuration expects a {config.table_kind} table, "
            f"got {table.kind}")

    if table.hardware_search and table.kind != "cam":
        # Trie/Bloom engines have a fixed pipeline depth the structure
        # itself reports; only the CAM's latency is clock-dependent.
        search_latency = table.search_latency_cycles()  # type: ignore[attr-defined]
    else:
        search_latency = config.cam_search_latency
    rtu = RoutingTableUnit("rtu0", table, memory, base_word=TABLE_BASE_WORD,
                           search_latency=search_latency)
    ippu = InputPreprocessingUnit("ippu0", line_cards, slots)
    oppu = OutputPostprocessingUnit("oppu0", line_cards, slots)
    units = [
        MemoryManagementUnit("mmu0", memory),
        rtu, ippu, oppu,
        LocalInfoUnit("liu0", words=[0] * 16),
        RegisterFileUnit("gpr", config.gpr_registers),
    ]
    units.extend(Matcher(f"mat{i}") for i in range(config.matchers))
    units.extend(Counter(f"cnt{i}") for i in range(config.counters))
    units.extend(Comparator(f"cmp{i}") for i in range(config.comparators))
    units.extend(Shifter(f"shf{i}") for i in range(config.shifters))
    units.extend(Masker(f"msk{i}") for i in range(config.maskers))
    units.extend(ChecksumUnit(f"cks{i}") for i in range(config.checksums))

    interconnect = Interconnect(bus_count=config.bus_count,
                                connectivity=connectivity or {})
    processor = TacoProcessor(interconnect, units, data_memory=memory)
    return RouterMachine(config=config, processor=processor, table=table,
                         rtu=rtu, ippu=ippu, oppu=oppu,
                         line_cards=line_cards, slots=slots, memory=memory)
