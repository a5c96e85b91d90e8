"""Functional (golden) model of the paper's IPv6 router.

"An IPv6 router should be able to receive IPv6 datagrams from the
connected networks, to check their validity for the right addressing and
fields, to interrogate the routing table for the interface(s) they should
be forwarded on, and to send the datagrams on the appropriate interface.
Additionally a router should build and maintain a routing table" (§3).

This pure-Python router defines the behaviour the TACO programs are
verified against, and hosts the control plane (RIPng, ICMPv6 errors) that
the paper leaves to the slow path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import Ipv6Error, ReproError
from repro.ipv6.address import Ipv6Address
from repro.ipv6.header import PROTO_ICMPV6, PROTO_UDP
from repro.ipv6.icmpv6 import destination_unreachable, time_exceeded
from repro.ipv6.packet import (
    Ipv6Datagram,
    ValidationFailure,
    validate_for_forwarding,
)
from repro.ipv6.ripng import RIPNG_MULTICAST_GROUP, RIPNG_PORT
from repro.ipv6.udp import UdpDatagram
from repro.obs.catalogue import RIPNG_REJECTED
from repro.router.linecard import LineCard
from repro.router.ripng_engine import RipngEngine
from repro.routing import make_table
from repro.routing.base import RoutingTable
from repro.routing.entry import RouteEntry

ICMP_HOP_LIMIT = 64


def _dict_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Per-key increase between two counter snapshots."""
    return {key: after[key] - before.get(key, 0)
            for key in after if after[key] > before.get(key, 0)}


@dataclass
class RouterStatistics:
    received: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    ripng_messages: int = 0
    dropped: Dict[str, int] = field(default_factory=dict)
    #: RTE-level control-plane rejections (reason -> count). These are
    #: sub-message events: the carrying datagram still counts as one
    #: ``ripng_messages``, so they sit outside the per-datagram
    #: accounting identity received == forwarded + delivered_local
    #: + ripng_messages + the sum of ``dropped``.
    control_rejected: Dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str, count: int = 1) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + count

    def reject_control(self, reason: str, count: int = 1) -> None:
        self.control_rejected[reason] = \
            self.control_rejected.get(reason, 0) + count


class ControlPlane:
    """The slow path of one router: local delivery and RIPng ingress.

    :class:`Ipv6Router` runs it behind its data plane, and the TACO
    machine runs every datagram its fast path punts through it
    (:meth:`repro.programs.machine.RouterMachine.process_punted`), so
    both refuse their own looped-back updates, answer requests on the
    ingress interface and count rejections the same way.
    """

    def __init__(self, name: str, interface_addresses: Sequence[Ipv6Address],
                 line_cards: List[LineCard], ripng: Optional[RipngEngine]):
        self.name = name
        self.interface_addresses = list(interface_addresses)
        self.line_cards = line_cards
        self.ripng = ripng
        self.stats = RouterStatistics()

    def deliver_local(self, interface: int, raw: bytes, now: float) -> None:
        """Consume one datagram the data plane handed up: RIPng goes to
        the engine, anything else is counted as delivered."""
        try:
            datagram = Ipv6Datagram.from_bytes(raw)
        except Ipv6Error:
            self.stats.drop("malformed-local")
            return
        if datagram.upper_layer_protocol == PROTO_UDP and self.ripng:
            try:
                udp = UdpDatagram.from_bytes(
                    datagram.payload, datagram.header.source,
                    datagram.header.destination)
            except Ipv6Error:
                self.stats.drop("bad-udp")
                return
            if udp.destination_port == RIPNG_PORT:
                self._receive_ripng(interface, datagram, udp, now)
                return
        self.stats.delivered_local += 1

    def _receive_ripng(self, interface: int, datagram: Ipv6Datagram,
                       udp: UdpDatagram, now: float) -> None:
        """Feed one RIPng datagram to the engine, surfacing its verdicts.

        Whole-message refusals become ``dropped`` entries (the datagram
        died); RTE-level refusals are mirrored into
        :attr:`RouterStatistics.control_rejected` — the datagram itself
        was processed, only some of its routes were refused. Both are
        published as ``ripng_rejected_total`` observability counters.
        """
        assert self.ripng is not None
        sender = datagram.header.source
        if sender in self.interface_addresses:
            # our own multicast update looped back (or was spoofed with
            # our address): processing it would corrupt split horizon
            self.stats.drop("ripng-own-source")
            self._count_rejections({"own-source": 1})
            return
        malformed_before = self.ripng.malformed_dropped
        messages_before = dict(self.ripng.rejected_messages)
        rtes_before = dict(self.ripng.rejected_rtes)
        replies = self.ripng.receive(udp.payload, sender=sender,
                                     interface=interface, now=now)
        if self.ripng.malformed_dropped != malformed_before:
            self.stats.drop("bad-ripng")
            self._count_rejections({"malformed": 1})
            return
        message_deltas = _dict_delta(messages_before,
                                     self.ripng.rejected_messages)
        if message_deltas:
            for reason, count in message_deltas.items():
                self.stats.drop(f"ripng-{reason}", count)
            self._count_rejections(message_deltas)
            return
        rte_deltas = _dict_delta(rtes_before, self.ripng.rejected_rtes)
        for reason, count in rte_deltas.items():
            self.stats.reject_control(reason, count)
        self._count_rejections(rte_deltas)
        self.stats.ripng_messages += 1
        for out_interface, message in replies:
            self._send_ripng(out_interface, message, unicast_to=sender)

    def _count_rejections(self, deltas: Dict[str, int]) -> None:
        for reason, count in deltas.items():
            RIPNG_REJECTED.inc(count, router=self.name, reason=reason)

    def _send_ripng(self, interface: int, message_bytes: bytes,
                    unicast_to: Optional[Ipv6Address] = None) -> None:
        source = self.interface_addresses[interface]
        destination = unicast_to or RIPNG_MULTICAST_GROUP
        udp = UdpDatagram(source_port=RIPNG_PORT,
                          destination_port=RIPNG_PORT,
                          payload=message_bytes)
        datagram = Ipv6Datagram.build(
            source=source, destination=destination,
            next_header=PROTO_UDP,
            payload=udp.to_bytes(source, destination),
            hop_limit=255)
        self.line_cards[interface].transmit(datagram.to_bytes())


class Ipv6Router(ControlPlane):
    """A complete software IPv6 router with a pluggable routing table."""

    def __init__(self, name: str, interface_addresses: Sequence[Ipv6Address],
                 table: Optional[RoutingTable] = None,
                 table_kind: str = "balanced-tree",
                 table_capacity: int = 100,
                 enable_ripng: bool = True):
        if not interface_addresses:
            raise ReproError("router needs at least one interface")
        line_cards = [LineCard(i) for i in range(len(interface_addresses))]
        super().__init__(name, interface_addresses, line_cards, None)
        self.table = table if table is not None else make_table(
            table_kind, capacity=table_capacity)
        if enable_ripng:
            self.ripng = RipngEngine(router_name=name, table=self.table,
                                     interface_count=len(self.line_cards))
            # interfaces are directly attached routes
            for i, address in enumerate(self.interface_addresses):
                self.ripng.add_connected(address, i)

    def add_interface(self, address: Ipv6Address) -> int:
        """Bring up one more interface at runtime; returns its index.

        The new interface gets a line card and, when RIPng is enabled,
        is announced as a directly attached route — exactly what
        :meth:`__init__` does for the initial interfaces.
        """
        index = len(self.line_cards)
        self.interface_addresses.append(address)
        self.line_cards.append(LineCard(index))
        if self.ripng is not None:
            self.ripng.add_interface(address, index)
        return index

    # -- data plane -----------------------------------------------------------------

    def receive(self, interface: int, raw: bytes,
                now: float = 0.0) -> None:
        """Process one datagram arriving on *interface*."""
        self._check_interface(interface)
        self.stats.received += 1
        failure = validate_for_forwarding(raw)
        if failure is ValidationFailure.HOP_LIMIT_EXCEEDED:
            # hop limit only gates *forwarding* (RFC 2460 §8.2): a packet
            # addressed to this router is still delivered locally below
            if not self._is_local_delivery(raw):
                self._icmp_error(interface, raw, kind="time-exceeded")
                self.stats.drop(failure.value)
                return
        elif failure is not None and not self._is_local_delivery(raw):
            self.stats.drop(failure.value)
            return

        destination = Ipv6Address.from_bytes(raw[24:40])
        if self._addressed_to_router(destination):
            self.deliver_local(interface, raw, now)
            return
        if destination.is_multicast():
            self.stats.drop("multicast-scope")
            return
        if raw[6] == 0 and not self._hop_by_hop_permits(raw):
            self.stats.drop("hop-by-hop-option")
            return

        result = self.table.lookup(destination)
        if result is None:
            self._icmp_error(interface, raw, kind="no-route")
            self.stats.drop("no-route")
            return
        forwarded = raw[:7] + bytes([raw[7] - 1]) + raw[8:]
        self.line_cards[result.interface].transmit(forwarded)
        self.stats.forwarded += 1

    def poll_inputs(self, now: float = 0.0) -> int:
        """Drain every line card's pending input through :meth:`receive`.

        No library error may escape the simulation loop: real silicon
        counts a malformed datagram and moves on, so any
        :class:`ReproError` a corrupted frame provokes past the targeted
        validity checks is converted into a drop statistic here.
        """
        processed = 0
        for card in self.line_cards:
            while card.has_pending_input():
                raw = card.pop_input()
                assert raw is not None
                try:
                    self.receive(card.index, raw, now=now)
                except ReproError:
                    self.stats.drop("ingress-error")
                processed += 1
        return processed

    # -- control plane -----------------------------------------------------------------

    def tick(self, now: float) -> None:
        """Advance RIPng timers; emits periodic/triggered updates."""
        if self.ripng is None:
            return
        for interface, message in self.ripng.tick(now):
            self._send_ripng(interface, message)

    def _icmp_error(self, interface: int, raw: bytes, kind: str) -> None:
        """Best-effort ICMPv6 error back toward the offending source."""
        try:
            source = Ipv6Address.from_bytes(raw[8:24])
        except Ipv6Error:
            return
        if source.is_unspecified() or source.is_multicast():
            return
        if kind == "time-exceeded":
            message = time_exceeded(raw)
        else:
            message = destination_unreachable(raw)
        local = self.interface_addresses[interface]
        datagram = Ipv6Datagram.build(
            source=local, destination=source,
            next_header=PROTO_ICMPV6,
            payload=message.to_bytes(local, source),
            hop_limit=ICMP_HOP_LIMIT)
        result = self.table.lookup(source)
        out_interface = result.interface if result else interface
        self.line_cards[out_interface].transmit(datagram.to_bytes())

    # -- helpers ------------------------------------------------------------------------

    def _hop_by_hop_permits(self, raw: bytes) -> bool:
        """Walk a hop-by-hop options header (RFC 2460 §4.3).

        Every router must examine these options. We honour padding (Pad1,
        PadN) and skip-over options (action bits 00); anything demanding
        action is punted — i.e. the datagram is not fast-path forwarded.
        """
        if len(raw) < 42:
            return False
        length = (raw[41] + 1) * 8
        options = raw[42:40 + length]
        if len(options) < length - 2:
            return False
        i = 0
        while i < len(options):
            option_type = options[i]
            if option_type == 0:  # Pad1
                i += 1
                continue
            if i + 1 >= len(options):
                return False
            option_len = options[i + 1]
            if i + 2 + option_len > len(options):
                return False
            if option_type != 1 and (option_type >> 6) != 0b00:
                return False  # option requires action: slow path
            i += 2 + option_len
        return True

    def _addressed_to_router(self, destination: Ipv6Address) -> bool:
        if destination in self.interface_addresses:
            return True
        return destination == RIPNG_MULTICAST_GROUP

    def _is_local_delivery(self, raw: bytes) -> bool:
        if len(raw) < 40:
            return False
        try:
            return self._addressed_to_router(Ipv6Address.from_bytes(raw[24:40]))
        except Ipv6Error:
            return False

    def _check_interface(self, interface: int) -> None:
        if not 0 <= interface < len(self.line_cards):
            raise ReproError(
                f"{self.name}: no interface {interface} "
                f"(has {len(self.line_cards)})")

    def routes(self) -> List[RouteEntry]:
        return self.table.entries()

    def __repr__(self) -> str:
        return (f"<Ipv6Router {self.name!r} {len(self.line_cards)} ifaces, "
                f"{len(self.table)} routes>")
