"""Minimal Ethernet/MAC layer for conformance checking.

The repro router core is deliberately link-layer-free (the paper's TACO
datapath starts at the IPv6 header), but the forwarding contract the
conformance suite asserts includes two link-level behaviours every real
router exhibits: the *my-station check* (only frames addressed to the
port's MAC — or an IPv6 multicast MAC — enter the datapath) and the
*MAC rewrite* (egress frames carry the egress port's MAC as source and
the resolved next hop's MAC as destination). This module supplies just
enough Ethernet to check both: a 6-byte :class:`MacAddress`, a 14-byte
header :class:`EthernetFrame`, and a :class:`MacShim` that wraps an
:class:`~repro.router.router.Ipv6Router` without touching it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConformanceError
from repro.ipv6.address import Ipv6Address
from repro.router.router import Ipv6Router

ETHERTYPE_IPV6 = 0x86DD
ETHERNET_HEADER_BYTES = 14


@dataclass(frozen=True)
class MacAddress:
    """A 48-bit IEEE MAC address."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 6:
            raise ConformanceError(
                f"MAC address needs 6 bytes, got {len(self.value)}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ConformanceError(f"malformed MAC address: {text!r}")
        try:
            return cls(bytes(int(part, 16) for part in parts))
        except ValueError as exc:
            raise ConformanceError(
                f"malformed MAC address: {text!r}") from exc

    @classmethod
    def for_ipv6_multicast(cls, group: Ipv6Address) -> "MacAddress":
        """RFC 2464 §7: 33:33 followed by the group's low 32 bits."""
        return cls(b"\x33\x33" + group.to_bytes()[12:16])

    def is_multicast(self) -> bool:
        return bool(self.value[0] & 0x01)

    def to_bytes(self) -> bytes:
        return self.value

    def __str__(self) -> str:
        return ":".join(f"{byte:02x}" for byte in self.value)


@dataclass(frozen=True)
class EthernetFrame:
    """destination | source | ethertype | payload (no FCS)."""

    destination: MacAddress
    source: MacAddress
    ethertype: int
    payload: bytes

    def to_bytes(self) -> bytes:
        return (self.destination.to_bytes() + self.source.to_bytes()
                + self.ethertype.to_bytes(2, "big") + self.payload)

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        if len(data) < ETHERNET_HEADER_BYTES:
            raise ConformanceError(
                f"truncated Ethernet frame: {len(data)} bytes")
        return cls(destination=MacAddress(bytes(data[0:6])),
                   source=MacAddress(bytes(data[6:12])),
                   ethertype=int.from_bytes(data[12:14], "big"),
                   payload=bytes(data[14:]))


def default_port_macs(count: int) -> List[MacAddress]:
    """Locally administered (02:...) MACs, one per router port."""
    return [MacAddress.parse(f"02:00:00:00:00:{index + 1:02x}")
            for index in range(count)]


#: the sending host's MAC on every ingress frame
_HOST_MAC = MacAddress.parse("02:aa:aa:aa:aa:01")


class MacShim:
    """The link layer a conformance run wraps around one router.

    Ingress enforces the my-station check before :meth:`Ipv6Router.receive`
    ever sees the datagram (so shim drops are counted here, not in
    :class:`RouterStatistics` — the datapath never received them).
    Egress wraps every transmitted datagram in a frame whose source is
    the egress port's MAC and whose destination is the resolved next
    hop's MAC (the destination itself for on-link routes, the RFC 2464
    multicast mapping for multicast destinations).
    """

    def __init__(self, router: Ipv6Router,
                 neighbors: Optional[Dict[Ipv6Address, MacAddress]] = None,
                 port_macs: Optional[Sequence[MacAddress]] = None):
        self.router = router
        self.neighbors = dict(neighbors or {})
        self.port_macs = list(port_macs) if port_macs is not None \
            else default_port_macs(len(router.line_cards))
        if len(self.port_macs) != len(router.line_cards):
            raise ConformanceError(
                f"{len(self.port_macs)} port MACs for "
                f"{len(router.line_cards)} line cards")
        self.dropped: Dict[str, int] = {}

    # -- ingress ----------------------------------------------------------------------

    def receive_frame(self, interface: int, frame_bytes: bytes,
                      now: float = 0.0) -> bool:
        """One frame off the wire; False = refused before the datapath."""
        try:
            frame = EthernetFrame.from_bytes(frame_bytes)
        except ConformanceError:
            self._drop("bad-frame")
            return False
        if not self._my_station(interface, frame.destination):
            self._drop("not-my-station")
            return False
        if frame.ethertype != ETHERTYPE_IPV6:
            self._drop("bad-ethertype")
            return False
        self.router.receive(interface, frame.payload, now=now)
        return True

    def frame_for(self, interface: int, datagram: bytes) -> bytes:
        """Wrap *datagram* as a host would send it to this router port."""
        return EthernetFrame(
            destination=self.port_macs[interface],
            source=_HOST_MAC,
            ethertype=ETHERTYPE_IPV6, payload=datagram).to_bytes()

    def _my_station(self, interface: int, destination: MacAddress) -> bool:
        if destination == self.port_macs[interface]:
            return True
        # IPv6-mapped multicast MACs (33:33:...) are always ours to see
        return destination.value[:2] == b"\x33\x33"

    def _drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

    # -- egress -----------------------------------------------------------------------

    def collect_frames(self) -> Dict[int, List[EthernetFrame]]:
        """Drain every line card's egress, MAC-rewritten into frames."""
        out: Dict[int, List[EthernetFrame]] = {}
        for card in self.router.line_cards:
            if not card.transmitted:
                continue
            frames = [EthernetFrame(
                destination=self._resolve_destination_mac(raw),
                source=self.port_macs[card.index],
                ethertype=ETHERTYPE_IPV6, payload=raw)
                for raw in card.transmitted]
            card.transmitted.clear()
            out[card.index] = frames
        return out

    def _resolve_destination_mac(self, raw: bytes) -> MacAddress:
        destination = Ipv6Address.from_bytes(raw[24:40])
        if destination.is_multicast():
            return MacAddress.for_ipv6_multicast(destination)
        next_hop = destination
        result = self.router.table.lookup(destination)
        if result is not None and not result.entry.next_hop.is_unspecified():
            next_hop = result.entry.next_hop
        neighbor = self.neighbors.get(next_hop)
        if neighbor is None:
            raise ConformanceError(
                f"no neighbor MAC for next hop {next_hop} "
                f"(destination {destination})")
        return neighbor
