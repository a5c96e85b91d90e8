"""Whole IPv6 datagrams: build, parse, validate, and the forwarding rewrite.

A :class:`Ipv6Datagram` owns the base header, the (possibly empty) extension
header chain, and the upper-layer payload. :func:`validate_for_forwarding`
encodes the checks the paper's router performs before consulting the routing
table ("check their validity for the right addressing and fields", §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

from repro.errors import Ipv6Error
from repro.ipv6.address import Ipv6Address
from repro.ipv6.header import (
    BASE_HEADER_BYTES,
    ExtensionHeader,
    Ipv6Header,
    walk_extension_headers,
)


@dataclass(frozen=True)
class Ipv6Datagram:
    """A fully assembled IPv6 datagram, as a line card delivers it."""

    header: Ipv6Header
    extension_headers: Sequence[ExtensionHeader] = field(default_factory=tuple)
    payload: bytes = b""

    @classmethod
    def build(cls, source: Ipv6Address, destination: Ipv6Address,
              next_header: int, payload: bytes, hop_limit: int = 64,
              extension_headers: Sequence[ExtensionHeader] = (),
              traffic_class: int = 0, flow_label: int = 0) -> "Ipv6Datagram":
        """Assemble a datagram, computing payload length and chaining headers.

        *next_header* names the upper-layer protocol of *payload*; any
        extension headers are spliced in front of it automatically.
        """
        ext = tuple(extension_headers)
        ext_bytes = sum(e.length_octets for e in ext)
        total_payload = ext_bytes + len(payload)
        if total_payload > 0xFFFF:
            raise Ipv6Error(f"payload too long for IPv6: {total_payload}")
        first_protocol = ext[0].protocol if ext else next_header
        chained = []
        for i, e in enumerate(ext):
            following = ext[i + 1].protocol if i + 1 < len(ext) else next_header
            chained.append(ExtensionHeader(protocol=e.protocol,
                                           next_header=following, data=e.data))
        header = Ipv6Header(
            source=source, destination=destination,
            payload_length=total_payload, next_header=first_protocol,
            hop_limit=hop_limit, traffic_class=traffic_class,
            flow_label=flow_label,
        )
        return cls(header=header, extension_headers=tuple(chained), payload=payload)

    def to_bytes(self) -> bytes:
        parts = [self.header.to_bytes()]
        parts.extend(e.to_bytes() for e in self.extension_headers)
        parts.append(self.payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv6Datagram":
        header = Ipv6Header.from_bytes(data)
        body = data[BASE_HEADER_BYTES:BASE_HEADER_BYTES + header.payload_length]
        if len(body) < header.payload_length:
            raise Ipv6Error(
                f"datagram truncated: payload length {header.payload_length}, "
                f"have {len(body)} bytes"
            )
        ext, _final_protocol, offset = walk_extension_headers(header.next_header, body)
        return cls(header=header, extension_headers=tuple(ext), payload=body[offset:])

    @property
    def upper_layer_protocol(self) -> int:
        """The protocol of the payload after any extension headers."""
        if self.extension_headers:
            return self.extension_headers[-1].next_header
        return self.header.next_header

    def forwarded(self) -> "Ipv6Datagram":
        """A copy with the hop limit decremented, as a router transmits it."""
        if self.header.hop_limit <= 1:
            raise Ipv6Error("hop limit exhausted; datagram must not be forwarded")
        return Ipv6Datagram(
            header=self.header.with_hop_limit(self.header.hop_limit - 1),
            extension_headers=self.extension_headers,
            payload=self.payload,
        )


class ValidationFailure(Enum):
    """Why a datagram was dropped (or punted) instead of forwarded."""

    BAD_VERSION = "bad-version"
    TRUNCATED = "truncated"
    HOP_LIMIT_EXCEEDED = "hop-limit-exceeded"
    UNSPECIFIED_SOURCE = "unspecified-source"
    MULTICAST_SOURCE = "multicast-source"
    LOOPBACK_DESTINATION = "loopback-destination"
    UNSPECIFIED_DESTINATION = "unspecified-destination"


def validate_for_forwarding(raw: bytes) -> Optional[ValidationFailure]:
    """Header checks a router applies before the routing-table lookup.

    Returns ``None`` when the datagram is forwardable, otherwise the first
    failure found. Mirrors RFC 2460 / RFC 4443 forwarding rules: version
    must be 6, the datagram must not be truncated, hop limit must allow one
    more hop, and degenerate source/destination addresses are rejected.
    """
    if len(raw) < BASE_HEADER_BYTES:
        return ValidationFailure.TRUNCATED
    if raw[0] >> 4 != 6:
        return ValidationFailure.BAD_VERSION
    payload_length = int.from_bytes(raw[4:6], "big")
    if len(raw) < BASE_HEADER_BYTES + payload_length:
        return ValidationFailure.TRUNCATED
    hop_limit = raw[7]
    if hop_limit <= 1:
        return ValidationFailure.HOP_LIMIT_EXCEEDED
    source = Ipv6Address.from_bytes(raw[8:24])
    destination = Ipv6Address.from_bytes(raw[24:40])
    if source.is_unspecified():
        return ValidationFailure.UNSPECIFIED_SOURCE
    if source.is_multicast():
        return ValidationFailure.MULTICAST_SOURCE
    if destination.is_unspecified():
        return ValidationFailure.UNSPECIFIED_DESTINATION
    if destination.is_loopback():
        return ValidationFailure.LOOPBACK_DESTINATION
    return None


def extension_header_chain(datagram: Ipv6Datagram) -> List[int]:
    """The protocol numbers along the header chain, ending at the payload."""
    chain = [datagram.header.next_header]
    for ext in datagram.extension_headers:
        chain.append(ext.next_header)
    return chain
