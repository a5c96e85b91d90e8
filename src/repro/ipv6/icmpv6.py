"""ICMPv6 (RFC 4443 subset, 2003-era RFC 2463 semantics).

The router emits Time Exceeded when a hop limit runs out and Destination
Unreachable (no route) when the longest-prefix match fails, so these two
messages plus Echo are modelled; anything else round-trips as a generic
message.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ChecksumError, Ipv6Error
from repro.ipv6.address import Ipv6Address
from repro.ipv6.checksum import transport_checksum, verify_transport_checksum
from repro.ipv6.header import PROTO_ICMPV6

ICMPV6_HEADER_BYTES = 4

TYPE_DESTINATION_UNREACHABLE = 1
TYPE_PACKET_TOO_BIG = 2
TYPE_TIME_EXCEEDED = 3
TYPE_PARAMETER_PROBLEM = 4
TYPE_ECHO_REQUEST = 128
TYPE_ECHO_REPLY = 129

CODE_NO_ROUTE = 0
CODE_HOP_LIMIT_EXCEEDED = 0

# RFC 4443 §2.4(c): error messages must not exceed the minimum IPv6 MTU.
MAX_ERROR_MESSAGE_BYTES = 1280


@dataclass(frozen=True)
class Icmpv6Message:
    """A generic ICMPv6 message: type, code, and the type-specific body."""

    type: int
    code: int
    body: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.type <= 0xFF:
            raise Ipv6Error(f"ICMPv6 type out of range: {self.type}")
        if not 0 <= self.code <= 0xFF:
            raise Ipv6Error(f"ICMPv6 code out of range: {self.code}")

    def to_bytes(self, source: Ipv6Address, destination: Ipv6Address) -> bytes:
        without_checksum = bytes([self.type, self.code, 0, 0]) + self.body
        checksum = transport_checksum(source, destination, PROTO_ICMPV6,
                                      without_checksum)
        return (without_checksum[:2] + checksum.to_bytes(2, "big")
                + without_checksum[4:])

    @classmethod
    def from_bytes(cls, data: bytes, source: Ipv6Address,
                   destination: Ipv6Address, verify: bool = True) -> "Icmpv6Message":
        if len(data) < ICMPV6_HEADER_BYTES:
            raise Ipv6Error(f"truncated ICMPv6 message: {len(data)} bytes")
        if verify and not verify_transport_checksum(source, destination,
                                                    PROTO_ICMPV6, data):
            raise ChecksumError("ICMPv6 checksum verification failed")
        return cls(type=data[0], code=data[1], body=bytes(data[4:]))


def _truncated_invoking_packet(invoking_datagram: bytes) -> bytes:
    """The invoking packet, truncated so the error fits the minimum MTU."""
    budget = MAX_ERROR_MESSAGE_BYTES - ICMPV6_HEADER_BYTES - 4 - 40
    return invoking_datagram[:budget]


def time_exceeded(invoking_datagram: bytes) -> Icmpv6Message:
    """Time Exceeded (hop limit) carrying as much of the packet as fits."""
    body = b"\x00\x00\x00\x00" + _truncated_invoking_packet(invoking_datagram)
    return Icmpv6Message(type=TYPE_TIME_EXCEEDED, code=CODE_HOP_LIMIT_EXCEEDED,
                         body=body)


def destination_unreachable(invoking_datagram: bytes,
                            code: int = CODE_NO_ROUTE) -> Icmpv6Message:
    """Destination Unreachable for a failed routing-table lookup."""
    body = b"\x00\x00\x00\x00" + _truncated_invoking_packet(invoking_datagram)
    return Icmpv6Message(type=TYPE_DESTINATION_UNREACHABLE, code=code, body=body)


def echo_request(identifier: int, sequence: int, data: bytes = b"") -> Icmpv6Message:
    if not 0 <= identifier <= 0xFFFF or not 0 <= sequence <= 0xFFFF:
        raise Ipv6Error("echo identifier/sequence out of range")
    body = identifier.to_bytes(2, "big") + sequence.to_bytes(2, "big") + data
    return Icmpv6Message(type=TYPE_ECHO_REQUEST, code=0, body=body)
