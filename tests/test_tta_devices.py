"""Slot pool, ippu and oppu DMA engines, RTU materialisation."""

import pytest

from repro.errors import SimulationError, TtaError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.router.linecard import LineCard
from repro.routing import (
    BalancedTreeRoutingTable,
    CamRoutingTable,
    SequentialRoutingTable,
)
from repro.routing.entry import RouteEntry
from repro.tta import DataMemory
from repro.tta.devices import SLOT_HEADER_WORDS, SlotPool
from repro.tta.fus import (
    ENTRY_STRIDE_WORDS,
    InputPreprocessingUnit,
    NIL_INDEX,
    OFF_ENCLOSING,
    OFF_INTERFACE,
    OFF_LEFT,
    OFF_MASK,
    OFF_NETWORK,
    OFF_RIGHT,
    OutputPostprocessingUnit,
    RoutingTableUnit,
)


def entry(text, iface=0):
    return RouteEntry(prefix=Ipv6Prefix.parse(text),
                      next_hop=Ipv6Address(1), interface=iface)


class TestSlotPool:
    def make(self, count=4):
        memory = DataMemory(1 << 14)
        return memory, SlotPool(memory, base_word=16, slot_bytes=256,
                                slot_count=count)

    def test_allocate_release_cycle(self):
        _, pool = self.make(2)
        a = pool.allocate()
        b = pool.allocate()
        assert pool.allocate() is None
        assert pool.exhaustion_events == 1
        pool.release(a)
        assert pool.allocate() == a
        assert b is not None

    def test_double_release_rejected(self):
        _, pool = self.make()
        slot = pool.allocate()
        pool.release(slot)
        with pytest.raises(TtaError):
            pool.release(slot)

    def test_bad_address_rejected(self):
        _, pool = self.make()
        with pytest.raises(TtaError):
            pool.release(17)

    def test_datagram_round_trip(self):
        _, pool = self.make()
        slot = pool.allocate()
        data = bytes(range(100))
        pool.store_datagram(slot, data, interface=3)
        assert pool.load_datagram(slot) == data
        assert pool.memory.load(slot) == 100
        assert pool.memory.load(slot + 1) == 3

    def test_oversized_datagram_rejected(self):
        _, pool = self.make()
        slot = pool.allocate()
        with pytest.raises(TtaError):
            pool.store_datagram(slot, b"x" * 1000, 0)

    def test_pool_must_fit_memory(self):
        memory = DataMemory(64)
        with pytest.raises(TtaError):
            SlotPool(memory, base_word=0, slot_bytes=256, slot_count=4)


class TestIppuOppu:
    def make(self):
        memory = DataMemory(1 << 14)
        cards = [LineCard(0), LineCard(1)]
        pool = SlotPool(memory, base_word=16, slot_bytes=256, slot_count=8)
        ippu = InputPreprocessingUnit("ippu0", cards, pool)
        oppu = OutputPostprocessingUnit("oppu0", cards, pool)
        return memory, cards, pool, ippu, oppu

    def test_ippu_admits_one_per_cycle_round_robin(self):
        _, cards, pool, ippu, _ = self.make()
        cards[0].deliver(b"AAAA")
        cards[1].deliver(b"BBBB")
        ippu.tick(0)
        assert ippu.pending() == 1
        assert ippu.result_bit
        ippu.tick(1)
        assert ippu.pending() == 2
        assert len(pool._free) == 6

    def test_ippu_pop_exposes_pointer_and_interface(self):
        _, cards, pool, ippu, _ = self.make()
        cards[1].deliver(b"HELLO")
        ippu.tick(0)
        ippu.write("t_pop", 0, 1)
        ippu.commit(2)
        pointer = ippu.ports["r_ptr"].value
        assert ippu.ports["r_iface"].value == 1
        assert pool.load_datagram(pointer) == b"HELLO"

    def test_ippu_pop_empty_is_an_error(self):
        _, _, _, ippu, _ = self.make()
        with pytest.raises(SimulationError):
            ippu.write("t_pop", 0, 0)

    def test_ippu_stalls_when_pool_exhausted(self):
        memory = DataMemory(1 << 12)
        cards = [LineCard(0)]
        pool = SlotPool(memory, base_word=16, slot_bytes=64, slot_count=1)
        ippu = InputPreprocessingUnit("ippu0", cards, pool)
        cards[0].deliver(b"one")
        cards[0].deliver(b"two")
        ippu.tick(0)
        ippu.tick(1)
        assert ippu.pending() == 1
        assert ippu.stalls_no_slot == 1
        assert cards[0].has_pending_input()

    def test_oppu_sends_and_releases(self):
        _, cards, pool, ippu, oppu = self.make()
        cards[0].deliver(b"PKT")
        ippu.tick(0)
        ippu.write("t_pop", 0, 1)
        ippu.commit(2)
        pointer = ippu.ports["r_ptr"].value
        oppu.ports["o_ptr"].value = pointer
        oppu.write("t_send", 1, 3)
        oppu.tick(3)
        assert cards[1].transmitted == [b"PKT"]
        assert len(pool._free) == 8
        assert oppu.datagrams_sent == 1

    def test_oppu_drop_releases_without_sending(self):
        _, cards, pool, ippu, oppu = self.make()
        cards[0].deliver(b"PKT")
        ippu.tick(0)
        ippu.write("t_pop", 0, 1)
        ippu.commit(2)
        oppu.ports["o_ptr"].value = ippu.ports["r_ptr"].value
        oppu.write("t_drop", 0, 3)
        oppu.tick(3)
        assert cards[0].transmitted == []
        assert cards[1].transmitted == []
        assert len(pool._free) == 8

    def test_oppu_bad_interface_rejected(self):
        _, _, _, _, oppu = self.make()
        with pytest.raises(SimulationError):
            oppu.write("t_send", 9, 0)


class TestRtuMaterialisation:
    def test_sequential_image_matches_scan_order(self):
        memory = DataMemory(1 << 16)
        table = SequentialRoutingTable()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 2))
        rtu = RoutingTableUnit("rtu0", table, memory, base_word=0x100)
        layout = table.memory_layout()
        assert layout[0].prefix.length == 32  # longest first
        first = 0x100
        assert memory.load(first + OFF_NETWORK) == 0x20010db8
        assert memory.load(first + OFF_MASK) == 0xFFFFFFFF
        assert memory.load(first + OFF_INTERFACE) == 2
        # padded to a multiple of six with unmatchable guard entries
        assert rtu.ports["r_size"].value == 6
        guard = first + 2 * ENTRY_STRIDE_WORDS
        assert memory.load(guard + OFF_NETWORK) == 0xFFFFFFFF

    def test_tree_image_links_are_consistent(self):
        memory = DataMemory(1 << 16)
        table = BalancedTreeRoutingTable()
        for i, text in enumerate(("::/0", "2001::/16", "2001:db8::/32",
                                  "4000::/2", "8000::/1")):
            table.insert(entry(text, i))
        rtu = RoutingTableUnit("rtu0", table, memory, base_word=0x100)
        root = rtu.ports["r_root"].value
        assert root != NIL_INDEX
        seen = set()

        def walk(index):
            if index == NIL_INDEX:
                return
            assert index not in seen
            seen.add(index)
            address = rtu.base_word + index * ENTRY_STRIDE_WORDS
            walk(memory.load(address + OFF_LEFT))
            walk(memory.load(address + OFF_RIGHT))

        walk(root)
        assert len(seen) == len(table)
        # enclosing links point at strictly shorter prefixes
        for index in seen:
            address = rtu.base_word + index * ENTRY_STRIDE_WORDS
            enclosing = memory.load(address + OFF_ENCLOSING)
            if enclosing != NIL_INDEX:
                outer = rtu.base_word + enclosing * ENTRY_STRIDE_WORDS
                assert memory.load(outer + 9) < memory.load(address + 9)

    def test_cam_search_via_trigger(self):
        memory = DataMemory(1 << 16)
        table = CamRoutingTable()
        table.insert(entry("::/0", 0))
        table.insert(entry("2001:db8::/32", 3))
        rtu = RoutingTableUnit("rtu0", table, memory, search_latency=2)
        destination = Ipv6Address.parse("2001:db8::7")
        w0, w1, w2, w3 = destination.words()
        rtu.ports["o_a0"].value = w0
        rtu.ports["o_a1"].value = w1
        rtu.ports["o_a2"].value = w2
        rtu.write("t_a3", w3, 0)
        rtu.commit(1)
        assert rtu.ports["r_iface"].value != 3  # latency not yet elapsed
        rtu.commit(2)
        assert rtu.ports["r_iface"].value == 3
        assert rtu.result_bit

    def test_cam_miss_signals_no_route(self):
        memory = DataMemory(1 << 16)
        table = CamRoutingTable()
        table.insert(entry("2001:db8::/32", 3))
        rtu = RoutingTableUnit("rtu0", table, memory)
        rtu.write("t_a3", 0x99, 0)
        rtu.commit(1)
        assert not rtu.result_bit
        assert rtu.ports["r_iface"].value == NIL_INDEX

    def test_software_search_trigger_rejected_for_ram_tables(self):
        memory = DataMemory(1 << 16)
        rtu = RoutingTableUnit("rtu0", SequentialRoutingTable(), memory)
        with pytest.raises(SimulationError):
            rtu.write("t_a3", 0, 0)
