"""Synthetic IPv6 traffic generation.

Produces real, parseable datagrams whose byte images feed the TACO data
memory. The throughput constraint enters the evaluation as a packet rate:
at 10 Gbps, rate = 10^9 * 10 / (8 * mean_packet_bytes); the calibration
constant lives in :mod:`repro.estimation.frequency`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.ipv6.address import Ipv6Address
from repro.ipv6.header import PROTO_UDP
from repro.ipv6.packet import Ipv6Datagram
from repro.routing.entry import RouteEntry
from repro.workload.tables import INTERFACE_COUNT, addresses_for_routes

DEFAULT_HOP_LIMIT = 64

#: bytes of UDP-ish payload every generated datagram carries
PAYLOAD_BYTES = 26

_PAYLOAD = bytes((i * 31 + 7) & 0xFF for i in range(PAYLOAD_BYTES))


def build_datagram(destination: Ipv6Address,
                   source: Optional[Ipv6Address] = None,
                   hop_limit: int = DEFAULT_HOP_LIMIT) -> bytes:
    """One forwardable UDP-ish datagram of :data:`PAYLOAD_BYTES` payload."""
    if source is None:
        source = Ipv6Address.parse("2001:db8:feed::1")
    datagram = Ipv6Datagram.build(source=source, destination=destination,
                                  next_header=PROTO_UDP, payload=_PAYLOAD,
                                  hop_limit=hop_limit)
    return datagram.to_bytes()


def forwarding_workload(routes: Sequence[RouteEntry], packet_count: int,
                        seed: int = 77,
                        default_route_fraction: float = 0.0
                        ) -> List[Tuple[int, bytes]]:
    """(input interface, datagram bytes) pairs for a forwarding run."""
    rng = random.Random(seed + 1)
    addresses = addresses_for_routes(routes, packet_count, seed=seed,
                                     default_route_fraction=default_route_fraction)
    return [(rng.randrange(INTERFACE_COUNT), build_datagram(a))
            for a in addresses]


def worst_case_workload(routes: Sequence[RouteEntry], packet_count: int,
                        seed: int = 77) -> List[Tuple[int, bytes]]:
    """Every packet matches only the default route: the full-scan case the
    paper's minimum-clock figures must guarantee."""
    return forwarding_workload(routes, packet_count, seed=seed,
                               default_route_fraction=1.0)
