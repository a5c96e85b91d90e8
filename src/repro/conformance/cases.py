"""The conformance fixture and the table-driven case matrix.

One fixed single-router topology exercises every branch of the
forwarding contract ("Data Path Processing in Fast Programmable Routers"
enumerates them: LPM, hop-limit handling, header validation, ICMP error
generation):

====== ==================== ==========================================
iface  router address       routes out of it
====== ==================== ==========================================
0      2001:db8:aa::1       2001:db8:aa::/64 on-link (the ingress LAN)
1      2001:db8:bb::1       2001:db8:bb::/64 on-link
2      2001:db8:cc::1       2001:db8:f0f0::/48 via fe80::c (LPM specific)
3      2001:db8:dd::1       2001:db8:f000::/36 via fe80::d (LPM broad),
                            ::/0 via fe80::e (default; omitted for the
                            no-route fixture)
====== ==================== ==========================================

The matrix is the cross product (packet kind: tcpv6/udpv6/icmpv6) x
(destination class: on-link/lpm/default/no-route) x (hop limit:
64/1/0), each case carrying its expected verdict, plus link-layer cases
for the my-station check. The LPM pair is deliberately nested —
``2001:db8:f0f0::99`` matches both the /36 and the /48 — so a
first-match-wins table bug selects the wrong egress interface and fails
the case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConformanceError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.checksum import transport_checksum
from repro.ipv6.header import PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from repro.ipv6.icmpv6 import echo_request
from repro.ipv6.packet import Ipv6Datagram
from repro.ipv6.udp import UdpDatagram
from repro.routing.entry import RouteEntry
from repro.router.router import Ipv6Router
from repro.conformance.mac import MacAddress

#: the conformance verdicts a case can expect
EXPECT_FORWARD = "forward"
EXPECT_TIME_EXCEEDED = "time-exceeded"
EXPECT_DEST_UNREACHABLE = "destination-unreachable"
EXPECT_LINK_DROP = "link-drop"

PACKET_KINDS: Tuple[str, ...] = ("tcpv6", "udpv6", "icmpv6")
DEST_CLASSES: Tuple[str, ...] = ("on-link", "lpm", "default", "no-route")
HOP_LIMITS: Tuple[int, ...] = (64, 1, 0)

INGRESS_INTERFACE = 0
#: a host on the ingress LAN; ICMP errors route back to it out iface 0
SOURCE_HOST = Ipv6Address.parse("2001:db8:aa::5")

ROUTER_ADDRESSES: Tuple[Ipv6Address, ...] = (
    Ipv6Address.parse("2001:db8:aa::1"),
    Ipv6Address.parse("2001:db8:bb::1"),
    Ipv6Address.parse("2001:db8:cc::1"),
    Ipv6Address.parse("2001:db8:dd::1"),
)

GATEWAY_LPM_SPECIFIC = Ipv6Address.parse("fe80::c")
GATEWAY_LPM_BROAD = Ipv6Address.parse("fe80::d")
GATEWAY_DEFAULT = Ipv6Address.parse("fe80::e")

#: destination address and expected egress interface per class
DESTINATIONS: Dict[str, Tuple[Ipv6Address, Optional[int]]] = {
    "on-link": (Ipv6Address.parse("2001:db8:bb::42"), 1),
    # matches the /48 (iface 2) AND the /36 (iface 3): LPM must pick 2
    "lpm": (Ipv6Address.parse("2001:db8:f0f0::99"), 2),
    "default": (Ipv6Address.parse("2001:db8:77::7"), 3),
    "no-route": (Ipv6Address.parse("2001:db8:77::7"), None),
}


def fixture_routes(include_default: bool = True) -> List[RouteEntry]:
    unspecified = Ipv6Address(0)
    routes = [
        RouteEntry(prefix=_prefix("2001:db8:aa::/64"),
                   next_hop=unspecified, interface=0),
        RouteEntry(prefix=_prefix("2001:db8:bb::/64"),
                   next_hop=unspecified, interface=1),
        RouteEntry(prefix=_prefix("2001:db8:f0f0::/48"),
                   next_hop=GATEWAY_LPM_SPECIFIC, interface=2, metric=2),
        RouteEntry(prefix=_prefix("2001:db8:f000::/36"),
                   next_hop=GATEWAY_LPM_BROAD, interface=3, metric=2),
    ]
    if include_default:
        routes.append(RouteEntry(prefix=_prefix("::/0"),
                                 next_hop=GATEWAY_DEFAULT, interface=3,
                                 metric=3))
    return routes


def _prefix(text: str) -> Ipv6Prefix:
    return Ipv6Prefix.parse(text)


def build_fixture(table_kind: str = "sequential",
                  include_default: bool = True) -> Ipv6Router:
    """A fresh fixture router (pure data plane: RIPng off, routes static)."""
    router = Ipv6Router("conformance", list(ROUTER_ADDRESSES),
                        table_kind=table_kind, table_capacity=16,
                        enable_ripng=False)
    for route in fixture_routes(include_default=include_default):
        router.table.insert(route)
    return router


def neighbor_macs() -> Dict[Ipv6Address, MacAddress]:
    """The static neighbor cache the MAC shim resolves next hops from."""
    table = {
        SOURCE_HOST: MacAddress.parse("02:aa:aa:aa:aa:05"),
        DESTINATIONS["on-link"][0]: MacAddress.parse("02:bb:bb:bb:bb:42"),
        GATEWAY_LPM_SPECIFIC: MacAddress.parse("02:cc:cc:cc:cc:0c"),
        GATEWAY_LPM_BROAD: MacAddress.parse("02:dd:dd:dd:dd:0d"),
        GATEWAY_DEFAULT: MacAddress.parse("02:ee:ee:ee:ee:0e"),
    }
    return table


# -- packet builders ---------------------------------------------------------------------


def build_packet(kind: str, destination: Ipv6Address,
                 hop_limit: int, source: Ipv6Address = SOURCE_HOST) -> bytes:
    """One conformance datagram with a valid transport checksum."""
    if kind == "udpv6":
        udp = UdpDatagram(source_port=4096, destination_port=4097,
                          payload=b"conformance-udp")
        return Ipv6Datagram.build(
            source=source, destination=destination, next_header=PROTO_UDP,
            payload=udp.to_bytes(source, destination),
            hop_limit=hop_limit).to_bytes()
    if kind == "tcpv6":
        segment = _tcp_segment(source, destination)
        return Ipv6Datagram.build(
            source=source, destination=destination, next_header=PROTO_TCP,
            payload=segment, hop_limit=hop_limit).to_bytes()
    if kind == "icmpv6":
        echo = echo_request(0x77, 1, b"conformance-echo")
        return Ipv6Datagram.build(
            source=source, destination=destination,
            next_header=PROTO_ICMPV6,
            payload=echo.to_bytes(source, destination),
            hop_limit=hop_limit).to_bytes()
    raise ConformanceError(f"unknown packet kind {kind!r}")


def _tcp_segment(source: Ipv6Address, destination: Ipv6Address,
                 payload: bytes = b"conformance-tcp") -> bytes:
    """A minimal TCP segment (SYN-ish header + payload), checksummed."""
    header = (
        (4096).to_bytes(2, "big")        # source port
        + (80).to_bytes(2, "big")        # destination port
        + (0x1000).to_bytes(4, "big")    # sequence number
        + (0).to_bytes(4, "big")         # acknowledgement number
        + bytes([0x50, 0x10])            # data offset 5, flags ACK
        + (0xFFFF).to_bytes(2, "big")    # window
        + b"\x00\x00"                    # checksum placeholder
        + b"\x00\x00"                    # urgent pointer
    )
    segment = header + payload
    checksum = transport_checksum(source, destination, PROTO_TCP, segment)
    return segment[:16] + checksum.to_bytes(2, "big") + segment[18:]


# -- the matrix --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformanceCase:
    """One row of the conformance matrix."""

    case_id: str
    packet_kind: str
    dest_class: str
    hop_limit: int
    destination: Ipv6Address
    expectation: str
    expected_interface: Optional[int] = None
    #: link-layer cases need the MAC shim; skipped when it is disabled
    requires_mac: bool = False
    #: how the ingress frame is addressed ("station" | "wrong" | "raw")
    mac_addressing: str = "station"

    def build(self) -> bytes:
        return build_packet(self.packet_kind, self.destination,
                            self.hop_limit)


def expected_verdict(dest_class: str,
                     hop_limit: int) -> Tuple[str, Optional[int]]:
    """The contract: hop-limit expiry outranks routing (RFC 2460 §8.2),
    then LPM decides, then absence of any route is unreachable."""
    if hop_limit <= 1:
        return EXPECT_TIME_EXCEEDED, None
    destination, interface = DESTINATIONS[dest_class]
    if interface is None:
        return EXPECT_DEST_UNREACHABLE, None
    return EXPECT_FORWARD, interface


def build_matrix() -> List[ConformanceCase]:
    """The full cross product, plus the link-layer my-station cases."""
    cases: List[ConformanceCase] = []
    for kind in PACKET_KINDS:
        for dest_class in DEST_CLASSES:
            for hop_limit in HOP_LIMITS:
                destination, _ = DESTINATIONS[dest_class]
                expectation, interface = expected_verdict(dest_class,
                                                          hop_limit)
                cases.append(ConformanceCase(
                    case_id=f"{kind}/{dest_class}/hl={hop_limit}",
                    packet_kind=kind, dest_class=dest_class,
                    hop_limit=hop_limit, destination=destination,
                    expectation=expectation,
                    expected_interface=interface))
    destination, interface = DESTINATIONS["lpm"]
    cases.append(ConformanceCase(
        case_id="mac/not-my-station",
        packet_kind="udpv6", dest_class="lpm", hop_limit=64,
        destination=destination, expectation=EXPECT_LINK_DROP,
        requires_mac=True, mac_addressing="wrong"))
    cases.append(ConformanceCase(
        case_id="mac/bad-ethertype",
        packet_kind="udpv6", dest_class="lpm", hop_limit=64,
        destination=destination, expectation=EXPECT_LINK_DROP,
        requires_mac=True, mac_addressing="bad-ethertype"))
    return cases
