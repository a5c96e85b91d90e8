"""RIPng distance-vector engine (RFC 2080 semantics).

The paper's router "builds up the Routing Table by listening for specific
datagrams broadcasted by the adjacent routers ... At regular intervals,
the routing table information is broadcasted to the adjacent routers"
(§3). This engine implements that: periodic full updates with simple
split horizon, triggered updates on metric change,
route timeout and garbage collection on RFC 2080's fixed timers (30 s
updates, 180 s timeout, 120 s garbage collection), and the
request/response protocol.

It drives a :class:`~repro.routing.base.RoutingTable` — any of the three
implementations — so RIPng activity exercises the exact insert/remove
paths whose update costs the paper's §4 discusses ("the insertion and
deletion operations become much more complex").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import RipngError, RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.ripng import (
    COMMAND_REQUEST,
    GARBAGE_COLLECTION_S,
    MAX_RTES_PER_MESSAGE,
    METRIC_INFINITY,
    ROUTE_TIMEOUT_S,
    RipngMessage,
    RouteTableEntry,
    UPDATE_INTERVAL_S,
    is_full_table_request,
    response,
)
from repro.routing.base import RoutingTable
from repro.routing.entry import RouteEntry

#: messages are returned as (interface, encoded bytes)
OutboundMessage = Tuple[int, bytes]

#: the length of the prefix an interface address announces
INTERFACE_PREFIX_LENGTH = 64


@dataclass
class RipngRoute:
    """Engine-side state for one learned or connected route."""

    prefix: Ipv6Prefix
    metric: int
    next_hop: Ipv6Address
    interface: int
    learned_from: Optional[Ipv6Address]  # None = connected (never expires)
    timeout_at: Optional[float]
    garbage_at: Optional[float] = None
    changed: bool = True
    route_tag: int = 0

    @property
    def expired(self) -> bool:
        return self.garbage_at is not None


class RipngEngine:
    """The distance-vector state machine of one router."""

    def __init__(self, router_name: str, table: RoutingTable,
                 interface_count: int):
        if interface_count < 1:
            raise RipngError("need at least one interface")
        self.router_name = router_name
        self.table = table
        self.interface_count = interface_count
        self.routes: Dict[Ipv6Prefix, RipngRoute] = {}
        self._next_update_at = 0.0
        self._pending_triggered = False
        self._booted = False
        self.updates_sent = 0
        self.responses_processed = 0
        self.malformed_dropped = 0
        #: whole messages refused after a clean parse (reason -> count);
        #: e.g. an update too large to have fit the minimum IPv6 MTU
        self.rejected_messages: Dict[str, int] = {}
        #: individual RTEs refused by validation (reason -> count):
        #: martian prefixes, non-link-local next hops, table exhaustion
        self.rejected_rtes: Dict[str, int] = {}

    # -- interfaces ----------------------------------------------------------------------

    def add_interface(self, address: Ipv6Address, interface: int) -> None:
        """Grow the engine by one interface and announce its /64.

        *interface* must be the next free index — the engine addresses
        interfaces densely (``range(interface_count)``) when emitting.
        """
        if interface != self.interface_count:
            raise RipngError(
                f"interfaces must be added densely: expected index "
                f"{self.interface_count}, got {interface}")
        self.interface_count += 1
        self.add_connected(address, interface)

    # -- route origination ---------------------------------------------------------------

    def add_connected(self, address: Ipv6Address, interface: int) -> None:
        """Announce the directly attached /64 of an interface."""
        prefix = Ipv6Prefix.of(address, INTERFACE_PREFIX_LENGTH)
        route = RipngRoute(
            prefix=prefix, metric=1,
            next_hop=Ipv6Address(0), interface=interface,
            learned_from=None, timeout_at=None)
        self.routes[prefix] = route
        self._install_configured(route)

    def originate(self, prefix: Ipv6Prefix, interface: int,
                  metric: int = 1) -> None:
        """Statically originate a prefix (e.g. a customer network)."""
        route = RipngRoute(prefix=prefix, metric=metric,
                           next_hop=Ipv6Address(0), interface=interface,
                           learned_from=None, timeout_at=None)
        self.routes[prefix] = route
        self._install_configured(route)

    def _install_configured(self, route: RipngRoute) -> None:
        # a connected/static route that doesn't fit is a configuration
        # error, not hostile input — it must fail loudly, not be shed
        self.table.insert(RouteEntry(
            prefix=route.prefix, next_hop=route.next_hop,
            interface=route.interface, metric=route.metric,
            route_tag=route.route_tag))

    # -- inbound -----------------------------------------------------------------------

    def receive(self, payload: bytes, sender: Ipv6Address, interface: int,
                now: float) -> List[OutboundMessage]:
        """Process one RIPng payload; returns any direct replies.

        A malformed payload (truncated header, ragged RTE body, invalid
        metric...) is counted in :attr:`malformed_dropped` and otherwise
        ignored — a routing daemon must survive garbage on port 521, not
        take the simulation down with it. A payload that parses but fails
        semantic validation is refused into :attr:`rejected_messages`
        (whole message) or :attr:`rejected_rtes` (single entries); no
        hostile entry ever reaches the routing table past these checks.
        """
        try:
            message = RipngMessage.from_bytes(payload)
        except RipngError:
            self.malformed_dropped += 1
            return []
        if len(message.entries) > MAX_RTES_PER_MESSAGE:
            # could never have crossed a real link inside the minimum MTU
            self._reject_message("oversized")
            return []
        if message.command == COMMAND_REQUEST:
            return self._handle_request(message, interface)
        # from_bytes only admits REQUEST or RESPONSE commands
        self._handle_response(message, sender, interface, now)
        return []

    def _reject_message(self, reason: str) -> None:
        self.rejected_messages[reason] = \
            self.rejected_messages.get(reason, 0) + 1

    def _reject_rte(self, reason: str) -> None:
        self.rejected_rtes[reason] = self.rejected_rtes.get(reason, 0) + 1

    @staticmethod
    def _is_martian(prefix: Ipv6Prefix) -> bool:
        """Prefixes no RIPng neighbour may legitimately advertise:
        multicast, loopback, link-local, and non-default unspecified."""
        network = prefix.network
        return (network.is_multicast()
                or network.is_loopback()
                or network.is_link_local()
                or (network.is_unspecified() and prefix.length > 0))

    def _handle_request(self, message: RipngMessage,
                        interface: int) -> List[OutboundMessage]:
        if is_full_table_request(message):
            entries = self._export_entries(interface)
            return self._chunked(interface, entries)
        # specific-prefix request: answer with our metric (or infinity)
        answers: List[RouteTableEntry] = []
        for entry, _next_hop in message.routes():
            route = self.routes.get(entry.prefix)
            metric = route.metric if route and not route.expired \
                else METRIC_INFINITY
            answers.append(RouteTableEntry(prefix=entry.prefix,
                                           metric=metric))
        return self._chunked(interface, answers)

    @staticmethod
    def _chunked(interface: int,
                 entries: List[RouteTableEntry]) -> List[OutboundMessage]:
        """Split an update so each message fits the minimum IPv6 MTU —
        the same bound receivers enforce against hostile oversized bursts."""
        return [(interface,
                 response(entries[i:i + MAX_RTES_PER_MESSAGE]).to_bytes())
                for i in range(0, len(entries), MAX_RTES_PER_MESSAGE)]

    def _handle_response(self, message: RipngMessage, sender: Ipv6Address,
                         interface: int, now: float) -> None:
        self.responses_processed += 1
        for entry, explicit_next_hop in message.routes():
            if self._is_martian(entry.prefix):
                self._reject_rte("martian-prefix")
                continue
            if explicit_next_hop is not None and \
                    not explicit_next_hop.is_link_local():
                # RFC 2080 §2.1.1: a next hop must be link-local; a global
                # one is a redirection attack surface, so refuse the RTE
                # entirely rather than falling back to the sender
                self._reject_rte("bad-next-hop")
                continue
            next_hop = explicit_next_hop or sender
            metric = min(entry.metric + 1, METRIC_INFINITY)
            self._consider(entry.prefix, metric, next_hop, interface,
                           sender, entry.route_tag, now)

    def _consider(self, prefix: Ipv6Prefix, metric: int,
                  next_hop: Ipv6Address, interface: int,
                  sender: Ipv6Address, route_tag: int, now: float) -> None:
        current = self.routes.get(prefix)
        if current is not None and current.learned_from is None:
            return  # never displace connected/static routes
        from_current_gateway = (current is not None
                                and current.learned_from == sender)
        if current is None:
            if metric >= METRIC_INFINITY:
                return
            route = RipngRoute(prefix=prefix, metric=metric,
                               next_hop=next_hop, interface=interface,
                               learned_from=sender,
                               timeout_at=now + ROUTE_TIMEOUT_S,
                               route_tag=route_tag)
            self.routes[prefix] = route
            if not self._install(route):
                del self.routes[prefix]  # roll back: engine mirrors table
                return
            self._pending_triggered = True
            return
        if from_current_gateway:
            # same gateway: always refresh, adopt any metric change
            current.timeout_at = now + ROUTE_TIMEOUT_S
            if metric != current.metric:
                current.metric = metric
                current.changed = True
                self._pending_triggered = True
                if metric >= METRIC_INFINITY:
                    self._start_deletion(current, now)
                else:
                    current.garbage_at = None
                    current.next_hop = next_hop
                    current.interface = interface
                    if not self._install(current):
                        self._start_deletion(current, now)
        elif metric < current.metric and metric < METRIC_INFINITY:
            current.metric = metric
            current.next_hop = next_hop
            current.interface = interface
            current.learned_from = sender
            current.timeout_at = now + ROUTE_TIMEOUT_S
            current.garbage_at = None
            current.changed = True
            if not self._install(current):
                self._start_deletion(current, now)
                return
            self._pending_triggered = True

    # -- timers / outbound ------------------------------------------------------------------

    def tick(self, now: float) -> List[OutboundMessage]:
        """Advance timers; returns updates to transmit."""
        out: List[OutboundMessage] = []
        if not self._booted:
            # RFC 2080 §2.5.1: ask every neighbour for its full table on
            # startup rather than waiting out an update interval
            self._booted = True
            from repro.ipv6.ripng import request_full_table
            request = request_full_table().to_bytes()
            out.extend((interface, request)
                       for interface in range(self.interface_count))
        self._expire(now)
        if self._pending_triggered:
            out.extend(self._emit_updates(changed_only=True))
            self._pending_triggered = False
        if now >= self._next_update_at:
            out.extend(self._emit_updates(changed_only=False))
            self._next_update_at = now + UPDATE_INTERVAL_S
        return out

    def _expire(self, now: float) -> None:
        to_delete: List[Ipv6Prefix] = []
        for route in self.routes.values():
            if route.learned_from is None:
                continue
            if route.garbage_at is not None:
                if now >= route.garbage_at:
                    to_delete.append(route.prefix)
            elif route.timeout_at is not None and now >= route.timeout_at:
                route.metric = METRIC_INFINITY
                route.changed = True
                self._pending_triggered = True
                self._start_deletion(route, now)
        for prefix in to_delete:
            del self.routes[prefix]

    def _start_deletion(self, route: RipngRoute, now: float) -> None:
        route.garbage_at = now + GARBAGE_COLLECTION_S
        if route.prefix in self.table:
            self.table.remove(route.prefix)

    def _emit_updates(self, changed_only: bool) -> List[OutboundMessage]:
        out: List[OutboundMessage] = []
        for interface in range(self.interface_count):
            entries = self._export_entries(interface,
                                           changed_only=changed_only)
            if entries:
                out.extend(self._chunked(interface, entries))
        for route in self.routes.values():
            route.changed = False
        if out:
            self.updates_sent += 1
        return out

    def _export_entries(self, interface: int,
                        changed_only: bool = False) -> List[RouteTableEntry]:
        """Split-horizon view of the table for one interface."""
        entries: List[RouteTableEntry] = []
        for route in self.routes.values():
            if changed_only and not route.changed:
                continue
            if route.learned_from is not None and \
                    route.interface == interface:
                continue  # split horizon: omit
            entries.append(RouteTableEntry(
                prefix=route.prefix, metric=min(route.metric, METRIC_INFINITY),
                route_tag=route.route_tag))
        return entries

    # -- table integration -------------------------------------------------------------------

    def _install(self, route: RipngRoute) -> bool:
        """Insert into the routing table; False if the table refused it.

        A full table is not an engine crash: the RTE is rejected and
        counted, mirroring how a hardware FIB sheds excess routes.
        """
        try:
            self.table.insert(RouteEntry(
                prefix=route.prefix, next_hop=route.next_hop,
                interface=route.interface, metric=route.metric,
                route_tag=route.route_tag))
        except RoutingTableError:
            self._reject_rte("table-full")
            return False
        return True

    def route_metric(self, prefix: Ipv6Prefix) -> Optional[int]:
        route = self.routes.get(prefix)
        if route is None or route.expired:
            return None
        return route.metric
