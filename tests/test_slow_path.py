"""Integration: TACO fast path + RIPng slow path, the full router loop.

The TACO program punts RIPng multicast datagrams to the control plane
via the oppu; the slow path updates the routing table, the RTU
re-materialises the memory image, and subsequently offered traffic is
forwarded along the newly learned route — "the TACO processor ... takes
care of building and maintaining its routing table" (§3), end to end.
"""

import pytest

from repro.dse.config import ArchitectureConfiguration
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.header import PROTO_UDP
from repro.ipv6.packet import Ipv6Datagram
from repro.ipv6.ripng import (
    RIPNG_MULTICAST_GROUP,
    RIPNG_PORT,
    RouteTableEntry,
    response,
)
from repro.ipv6.udp import UdpDatagram
from repro.programs.forwarding import build_forwarding_program
from repro.programs.machine import build_machine
from repro.routing.entry import RouteEntry
from repro.tta.simulator import Simulator
from repro.workload import build_datagram

NEIGHBOUR = Ipv6Address.parse("fe80::beef")
LEARNED_PREFIX = Ipv6Prefix.parse("2001:bb::/32")


def ripng_announcement(prefix=LEARNED_PREFIX, metric=2):
    entry = RouteTableEntry(prefix=prefix, metric=metric)
    udp = UdpDatagram(RIPNG_PORT, RIPNG_PORT, response([entry]).to_bytes())
    datagram = Ipv6Datagram.build(
        source=NEIGHBOUR, destination=RIPNG_MULTICAST_GROUP,
        next_header=PROTO_UDP,
        payload=udp.to_bytes(NEIGHBOUR, RIPNG_MULTICAST_GROUP),
        hop_limit=255)
    return datagram.to_bytes()


@pytest.fixture(params=["sequential", "balanced-tree", "cam"])
def machine(request):
    config = ArchitectureConfiguration(bus_count=3,
                                       table_kind=request.param)
    m = build_machine(config)
    m.load_routes([RouteEntry(prefix=Ipv6Prefix.parse("::/0"),
                              next_hop=Ipv6Address.parse("fe80::1"),
                              interface=0)])
    m.attach_ripng([Ipv6Address.parse(f"2001:db8:{i:x}::1")
                    for i in range(4)])
    return m


def drain(machine):
    """Run the bench-mode program until the offered batch is consumed."""
    program = build_forwarding_program(machine)
    machine.processor.reset()
    simulator = Simulator(machine.processor, program)
    return simulator.run(max_cycles=200_000)


class TestSlowPathLearning:
    def test_ripng_datagram_is_punted_not_forwarded(self, machine):
        machine.offered_load(2, ripng_announcement())
        drain(machine)
        assert len(machine.oppu.punted) == 1
        assert all(not c.transmitted for c in machine.line_cards)

    def test_learned_route_installs_and_forwards(self, machine):
        # before learning: traffic to 2001:bb:: falls to the default route
        machine.offered_load(0, build_datagram(
            Ipv6Address.parse("2001:bb::7")))
        drain(machine)
        assert len(machine.line_cards[0].transmitted) == 1

        # a neighbour announces 2001:bb::/32 on interface 2
        machine.offered_load(2, ripng_announcement())
        drain(machine)
        assert machine.process_punted(now=1.0) == 1
        result = machine.table.lookup(Ipv6Address.parse("2001:bb::7"))
        assert result is not None
        assert result.interface == 2
        assert result.entry.metric == 3  # incremented on receipt

        # after learning: the same traffic leaves on interface 2,
        # straight from the refreshed RTU image in data memory
        machine.offered_load(0, build_datagram(
            Ipv6Address.parse("2001:bb::9")))
        drain(machine)
        assert len(machine.line_cards[2].transmitted) == 1

    def test_withdrawn_route_reverts_to_default(self, machine):
        machine.offered_load(2, ripng_announcement(metric=2))
        drain(machine)
        machine.process_punted(now=1.0)
        assert machine.table.lookup(
            Ipv6Address.parse("2001:bb::7")).interface == 2

        machine.offered_load(2, ripng_announcement(metric=16))  # infinity
        drain(machine)
        machine.process_punted(now=2.0)
        machine.offered_load(0, build_datagram(
            Ipv6Address.parse("2001:bb::7")))
        drain(machine)
        # back onto the default route out of interface 0
        assert len(machine.line_cards[0].transmitted) == 1

    def test_slots_are_released_after_punt_processing(self, machine):
        free_before = len(machine.slots._free)
        machine.offered_load(2, ripng_announcement())
        drain(machine)
        assert len(machine.slots._free) == free_before - 1
        machine.process_punted()
        assert len(machine.slots._free) == free_before

    def test_non_ripng_multicast_is_consumed_harmlessly(self, machine):
        raw = build_datagram(Ipv6Address.parse("ff02::1"))
        machine.offered_load(1, raw)
        drain(machine)
        routes_before = len(machine.table)
        assert machine.process_punted() == 1
        assert len(machine.table) == routes_before
