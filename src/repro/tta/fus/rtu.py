"""Routing Table Unit (RTU).

"The Routing Table implementation is the most important aspect of a
router's performance, so we decided to create a dedicated functional unit
for it" (paper §4). The RTU owns the routing table in all three
implementation options, but its role differs:

* **sequential / balanced-tree** — the table lives in data memory and the
  *search is software*, executed by the Matcher/Comparator/Counter FUs
  (that is why tripling those units speeds these rows up in Table 1). The
  RTU materialises the table into memory and publishes its geometry on
  static result ports (``r_base``, ``r_root``, ``r_size``).
* **CAM / multibit-trie / Bloom** — the search is a hardware operation of
  the RTU itself (any table with ``hardware_search = True``): load the
  first three destination-address words into operand latches and trigger
  with the fourth; the matching interface appears on ``r_iface`` after the
  engine's search latency. For the CAM that latency is its wall-clock
  40 ns converted to cycles (clock-dependent, resolved by the evaluator's
  fixed point); for the trie and the Bloom bank it is a fixed on-chip
  pipeline depth the structure itself reports
  (``search_latency_cycles()``), independent of the clock.

Memory layout (16-word stride, so address generation is a 4-bit shift):

====  =========================================================
word  sequential entry            balanced-tree node
====  =========================================================
0-3   prefix network (msw first)  prefix network (msw first)
4-7   prefix mask                 prefix mask
8     output interface            output interface
9     prefix length               prefix length
10    (unused)                    left child index  (NIL = 0xFFFFFFFF)
11    (unused)                    right child index (NIL = 0xFFFFFFFF)
12    (unused)                    enclosing node index (NIL = none)
====  =========================================================
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError, SimulationError
from repro.ipv6.address import Ipv6Address
from repro.routing.base import RoutingTable
from repro.routing.sequential import SequentialRoutingTable
from repro.routing.balanced_tree import BalancedTreeRoutingTable
from repro.tta.fu import FunctionalUnit
from repro.tta.memory import DataMemory
from repro.tta.ports import PortKind

ENTRY_STRIDE_WORDS = 16
ENTRY_STRIDE_SHIFT = 4
NIL_INDEX = 0xFFFFFFFF

OFF_NETWORK = 0
OFF_MASK = 4
OFF_INTERFACE = 8
OFF_LENGTH = 9
OFF_LEFT = 10
OFF_RIGHT = 11
OFF_ENCLOSING = 12


class RoutingTableUnit(FunctionalUnit):
    kind = "rtu"

    def __init__(self, name: str, table: RoutingTable, memory: DataMemory,
                 base_word: int = 0x8000, search_latency: int = 1):
        if search_latency < 1:
            raise ConfigurationError(
                f"search latency must be >= 1 cycle: {search_latency}")
        self.table = table
        self.memory = memory
        self.base_word = base_word
        self.search_latency = search_latency
        super().__init__(name)
        self.refresh()

    def _declare_ports(self) -> None:
        # table geometry for software searches (statically valid)
        self.add_port("r_base", PortKind.RESULT)
        self.add_port("r_root", PortKind.RESULT)
        self.add_port("r_size", PortKind.RESULT)
        # CAM search interface
        self.add_port("o_a0", PortKind.OPERAND)
        self.add_port("o_a1", PortKind.OPERAND)
        self.add_port("o_a2", PortKind.OPERAND)
        self.add_port("t_a3", PortKind.TRIGGER)
        self.add_port("r_iface", PortKind.RESULT)

    # -- materialisation ----------------------------------------------------------

    def refresh(self) -> None:
        """(Re)write the table image into data memory after updates."""
        self._padded_size = len(self.table)
        if isinstance(self.table, SequentialRoutingTable):
            self._materialize_sequential()
        elif isinstance(self.table, BalancedTreeRoutingTable):
            self._materialize_tree()
        elif getattr(self.table, "hardware_search", False):
            # CAM / multibit-trie / Bloom: the search engine is the RTU
            # itself; nothing to materialise, only the latency to honour.
            self.latency = self.search_latency
        else:
            raise ConfigurationError(
                f"RTU cannot host a {type(self.table).__name__}")
        self.port("r_base").value = self.base_word
        # r_size is the scan length (padded for the sequential image)
        self.port("r_size").value = self._padded_size

    def _write_prefix_words(self, address: int, entry) -> None:
        for i, word in enumerate(entry.prefix.network.words()):
            self.memory.store(address + OFF_NETWORK + i, word)
        for i, word in enumerate(entry.prefix.mask_words()):
            self.memory.store(address + OFF_MASK + i, word)
        self.memory.store(address + OFF_INTERFACE, entry.interface)
        self.memory.store(address + OFF_LENGTH, entry.prefix.length)

    def _materialize_sequential(self) -> None:
        layout = self.table.memory_layout()  # type: ignore[attr-defined]
        for index, entry in enumerate(layout):
            self._write_prefix_words(
                self.base_word + index * ENTRY_STRIDE_WORDS, entry)
        # Pad to a multiple of six with unmatchable guard entries so both
        # the 3-strand and the unroll-by-2 scans can treat the image as
        # whole windows. Guard network ff..f under an all-ones mask can
        # only match a multicast destination, which validation punts
        # before any search.
        self._padded_size = len(layout)
        while self._padded_size % 6:
            address = self.base_word + self._padded_size * ENTRY_STRIDE_WORDS
            for i in range(4):
                self.memory.store(address + OFF_NETWORK + i, 0xFFFFFFFF)
                self.memory.store(address + OFF_MASK + i, 0xFFFFFFFF)
            self.memory.store(address + OFF_INTERFACE, 0)
            self.memory.store(address + OFF_LENGTH, 128)
            self._padded_size += 1
        self.port("r_root").value = 0

    def _materialize_tree(self) -> None:
        # Assign indices in insertion-independent (in-order) sequence and
        # encode child/enclosing links by index.
        tree: BalancedTreeRoutingTable = self.table  # type: ignore[assignment]
        index_of: Dict[int, int] = {}
        ordered = []

        def visit(node):
            if node is None:
                return
            index_of[id(node)] = len(ordered)
            ordered.append(node)
            visit(node.left)
            visit(node.right)

        visit(tree._root)  # noqa: SLF001 — the RTU is the tree's memory image
        for index, node in enumerate(ordered):
            address = self.base_word + index * ENTRY_STRIDE_WORDS
            self._write_prefix_words(address, node.entry)
            self.memory.store(address + OFF_LEFT,
                              index_of[id(node.left)] if node.left else NIL_INDEX)
            self.memory.store(address + OFF_RIGHT,
                              index_of[id(node.right)] if node.right else NIL_INDEX)
            if node.enclosing is not None:
                enclosing_node = tree._nodes[node.enclosing]  # noqa: SLF001
                self.memory.store(address + OFF_ENCLOSING,
                                  index_of[id(enclosing_node)])
            else:
                self.memory.store(address + OFF_ENCLOSING, NIL_INDEX)
        root_index = index_of[id(tree._root)] if tree._root else NIL_INDEX  # noqa: SLF001
        self.port("r_root").value = root_index

    # -- CAM search ----------------------------------------------------------------

    def _execute(self, trigger_port: str, value: int, cycle: int) -> None:
        if trigger_port != "t_a3":
            raise SimulationError(f"unknown RTU trigger {trigger_port!r}")
        if not getattr(self.table, "hardware_search", False):
            raise SimulationError(
                f"RTU hosts a {self.table.kind} table; hardware search is "
                f"only available with a CAM, multibit trie, or Bloom bank")
        address = Ipv6Address.from_words((
            self.operand("o_a0"), self.operand("o_a1"),
            self.operand("o_a2"), value))
        result = self.table.lookup(address)
        if result is None:
            self.finish(cycle, {"r_iface": NIL_INDEX}, result_bit=False,
                        latency=self.search_latency)
        else:
            self.finish(cycle, {"r_iface": result.interface}, result_bit=True,
                        latency=self.search_latency)

    def reset(self) -> None:
        super().reset()
        # Geometry ports are statically driven; restore them after reset.
        self.refresh()
