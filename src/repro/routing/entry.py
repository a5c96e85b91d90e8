"""Routing-table entries and lookup results shared by all implementations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.ripng import METRIC_INFINITY


@dataclass(frozen=True)
class RouteEntry:
    """One route: destination prefix, next hop, output interface, metric.

    *interface* is the index of the line card the datagram leaves on; a
    *next_hop* equal to the unspecified address means the destination is
    directly attached (deliver, don't relay).
    """

    prefix: Ipv6Prefix
    next_hop: Ipv6Address
    interface: int
    metric: int = 1
    route_tag: int = 0

    def __post_init__(self) -> None:
        if self.interface < 0:
            raise RoutingTableError(f"negative interface index: {self.interface}")
        if not 0 <= self.metric <= METRIC_INFINITY:
            raise RoutingTableError(f"metric out of range: {self.metric}")
        if not 0 <= self.route_tag <= 0xFFFF:
            raise RoutingTableError(f"route tag out of range: {self.route_tag}")

    def __str__(self) -> str:
        return (f"{self.prefix} via {self.next_hop} "
                f"dev {self.interface} metric {self.metric}")


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a longest-prefix-match lookup."""

    entry: RouteEntry
    steps: int
    """How many table elements the implementation examined — the quantity
    the per-implementation cycle models are built on (entries scanned for
    the sequential table, nodes visited for the tree, 1 for the CAM)."""

    @property
    def next_hop(self) -> Ipv6Address:
        return self.entry.next_hop

    @property
    def interface(self) -> int:
        return self.entry.interface

    @property
    def prefix_length(self) -> int:
        return self.entry.prefix.length
