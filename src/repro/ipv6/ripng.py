"""RIPng message codec (RFC 2080).

RIPng is the routing protocol the paper's router runs to build and maintain
its routing table ("an IPv6 router that uses the Routing Information
Protocol (RIPng)", §1). Messages are UDP datagrams on port 521, normally
multicast to ``ff02::9``. A message is a 4-byte header followed by 20-byte
route table entries (RTEs); a special RTE with metric 0xFF carries the next
hop for the RTEs that follow it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import RipngError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix

RIPNG_PORT = 521
RIPNG_MULTICAST_GROUP = Ipv6Address.parse("ff02::9")

COMMAND_REQUEST = 1
COMMAND_RESPONSE = 2
RIPNG_VERSION = 1

METRIC_MIN = 1
METRIC_INFINITY = 16
NEXT_HOP_METRIC = 0xFF

RTE_BYTES = 20
HEADER_BYTES = 4

#: the most RTEs one message can carry without exceeding the minimum IPv6
#: MTU (RFC 2080 §2.1: 1280 bytes minus IPv6, UDP, and RIPng headers).
#: Senders split larger updates; receivers treat anything bigger as hostile.
MAX_RTES_PER_MESSAGE = (1280 - 40 - 8 - HEADER_BYTES) // RTE_BYTES

# RFC 2080 timers (seconds), fixed in the engine. The paper notes
# stabilised-network updates arrive "once in 2 minutes"; the base RFC
# interval is 30 s, with garbage collection after expiry.
UPDATE_INTERVAL_S = 30.0
ROUTE_TIMEOUT_S = 180.0
GARBAGE_COLLECTION_S = 120.0


@dataclass(frozen=True)
class RouteTableEntry:
    """One 20-byte RTE: prefix, route tag, prefix length, metric."""

    prefix: Ipv6Prefix
    metric: int
    route_tag: int = 0

    def __post_init__(self) -> None:
        if not METRIC_MIN <= self.metric <= METRIC_INFINITY:
            raise RipngError(f"metric out of range: {self.metric}")
        if not 0 <= self.route_tag <= 0xFFFF:
            raise RipngError(f"route tag out of range: {self.route_tag}")

    def to_bytes(self) -> bytes:
        return (self.prefix.network.to_bytes()
                + self.route_tag.to_bytes(2, "big")
                + bytes([self.prefix.length, self.metric]))


@dataclass(frozen=True)
class NextHopEntry:
    """The RTE variant (metric 0xFF) naming the next hop for following RTEs.

    An unspecified address (``::``) means "use the originator of the
    message" — the common case.
    """

    next_hop: Ipv6Address

    def to_bytes(self) -> bytes:
        return self.next_hop.to_bytes() + b"\x00\x00\x00" + bytes([NEXT_HOP_METRIC])


@dataclass(frozen=True)
class RipngMessage:
    """A full RIPng message: command plus an ordered entry list."""

    command: int
    entries: Sequence[object] = field(default_factory=tuple)  # RTE | NextHopEntry
    version: int = RIPNG_VERSION

    def __post_init__(self) -> None:
        if self.command not in (COMMAND_REQUEST, COMMAND_RESPONSE):
            raise RipngError(f"unknown RIPng command: {self.command}")
        if self.version != RIPNG_VERSION:
            raise RipngError(f"unsupported RIPng version: {self.version}")
        for entry in self.entries:
            if not isinstance(entry, (RouteTableEntry, NextHopEntry)):
                raise RipngError(f"invalid entry type: {type(entry).__name__}")

    def to_bytes(self) -> bytes:
        parts = [bytes([self.command, self.version, 0, 0])]
        parts.extend(e.to_bytes() for e in self.entries)  # type: ignore[union-attr]
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RipngMessage":
        if len(data) < HEADER_BYTES:
            raise RipngError(f"truncated RIPng header: {len(data)} bytes")
        command, version = data[0], data[1]
        body = data[HEADER_BYTES:]
        if len(body) % RTE_BYTES:
            raise RipngError(
                f"RIPng body is not a whole number of RTEs: {len(body)} bytes")
        entries: List[object] = []
        for offset in range(0, len(body), RTE_BYTES):
            entries.append(_parse_entry(body[offset:offset + RTE_BYTES]))
        return cls(command=command, entries=tuple(entries), version=version)

    def routes(self) -> List[Tuple[RouteTableEntry, Optional[Ipv6Address]]]:
        """Pair each route RTE with its effective next hop (None = sender)."""
        current_next_hop: Optional[Ipv6Address] = None
        pairs: List[Tuple[RouteTableEntry, Optional[Ipv6Address]]] = []
        for entry in self.entries:
            if isinstance(entry, NextHopEntry):
                if entry.next_hop.is_unspecified():
                    current_next_hop = None
                else:
                    current_next_hop = entry.next_hop
            else:
                pairs.append((entry, current_next_hop))  # type: ignore[arg-type]
        return pairs


def _parse_entry(chunk: bytes) -> object:
    metric = chunk[19]
    if metric == NEXT_HOP_METRIC:
        if chunk[16:19] != b"\x00\x00\x00":
            raise RipngError("next-hop RTE has non-zero tag/length fields")
        return NextHopEntry(next_hop=Ipv6Address.from_bytes(chunk[0:16]))
    prefix_length = chunk[18]
    address = Ipv6Address.from_bytes(chunk[0:16])
    # Receivers must tolerate host bits below the prefix length (RFC 2080
    # says to ignore invalid entries; we normalise instead of rejecting).
    prefix = Ipv6Prefix.of(address, prefix_length) if prefix_length <= 128 else None
    if prefix is None:
        raise RipngError(f"invalid prefix length: {prefix_length}")
    return RouteTableEntry(
        prefix=prefix,
        route_tag=int.from_bytes(chunk[16:18], "big"),
        metric=metric,
    )


def request_full_table() -> RipngMessage:
    """The RFC 2080 §2.4.1 "send me everything" request: one RTE,
    prefix ::/0, metric infinity."""
    entry = RouteTableEntry(prefix=Ipv6Prefix.parse("::/0"),
                            metric=METRIC_INFINITY)
    return RipngMessage(command=COMMAND_REQUEST, entries=(entry,))


def response(entries: Sequence[RouteTableEntry]) -> RipngMessage:
    return RipngMessage(command=COMMAND_RESPONSE, entries=tuple(entries))


def is_full_table_request(message: RipngMessage) -> bool:
    if message.command != COMMAND_REQUEST or len(message.entries) != 1:
        return False
    entry = message.entries[0]
    return (isinstance(entry, RouteTableEntry)
            and entry.prefix.length == 0
            and entry.metric == METRIC_INFINITY)
