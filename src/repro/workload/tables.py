"""Synthetic routing-table workloads.

The paper's design constraint is "a maximum size of 100 entries" (§4);
these generators produce tables of any size with a 2003-flavoured prefix
length mix and a default route, plus address generators that hit chosen
entries — the inputs for both the Table 1 measurement and the ablations.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing.entry import RouteEntry

#: prefix length distribution: global IPv6 policy of the era allocated
#: /16..  /48 to providers/sites and /64 to subnets
PREFIX_LENGTH_MIX = (16, 24, 32, 32, 48, 48, 48, 64)

#: global-unicast space (2000::/3) keeps generated routes away from the
#: multicast/link-local ranges the router's validation stage filters out
GLOBAL_UNICAST_PREFIX = 0x2000 << 112

#: interfaces generated routes and traffic are spread over, one per line
#: card of the router machine
INTERFACE_COUNT = 4


def random_prefix(rng: random.Random,
                  length: Optional[int] = None) -> Ipv6Prefix:
    """A random global-unicast prefix (never the default route)."""
    if length is None:
        length = rng.choice(PREFIX_LENGTH_MIX)
    value = GLOBAL_UNICAST_PREFIX | (rng.getrandbits(125))
    # keep the top three bits = 001 (2000::/3)
    value = (value & ~(0b111 << 125)) | (0b001 << 125)
    return Ipv6Prefix.of(Ipv6Address(value), length)


def generate_routes(entry_count: int, seed: int = 2003,
                    include_default: bool = True) -> List[RouteEntry]:
    """*entry_count* unique routes, default route included in the count."""
    if entry_count < 1:
        raise ValueError(f"need at least one entry: {entry_count}")
    rng = random.Random(seed)
    routes: List[RouteEntry] = []
    seen = set()
    if include_default:
        routes.append(RouteEntry(
            prefix=Ipv6Prefix.parse("::/0"),
            next_hop=Ipv6Address.parse("fe80::1"),
            interface=0, metric=1))
        seen.add(routes[0].prefix)
    while len(routes) < entry_count:
        prefix = random_prefix(rng)
        if prefix in seen:
            continue
        seen.add(prefix)
        routes.append(RouteEntry(
            prefix=prefix,
            next_hop=Ipv6Address(GLOBAL_UNICAST_PREFIX | len(routes)),
            interface=len(routes) % INTERFACE_COUNT,
            metric=1 + rng.randrange(8)))
    return routes


def address_inside(prefix: Ipv6Prefix, rng: random.Random) -> Ipv6Address:
    """A random address covered by *prefix* (unicast-safe for ::/0)."""
    host_bits = rng.getrandbits(128) & ~prefix.mask() & ((1 << 128) - 1)
    value = prefix.network.value | host_bits
    if prefix.length == 0:
        # steer the default-route case into global unicast space
        value = (value & ((1 << 125) - 1)) | (0b001 << 125)
    return Ipv6Address(value)


def addresses_for_routes(routes: Sequence[RouteEntry], count: int,
                         seed: int = 77,
                         default_route_fraction: float = 0.0) -> List[Ipv6Address]:
    """Destination addresses matching random routes from *routes*.

    *default_route_fraction* of them fall outside every specific prefix
    (matching only the default route), which drives the worst-case scan of
    the sequential implementation.
    """
    rng = random.Random(seed)
    specific = [r for r in routes if r.prefix.length > 0]
    default = [r for r in routes if r.prefix.length == 0]
    out: List[Ipv6Address] = []
    while len(out) < count:
        roll_default = rng.random() < default_route_fraction or not specific
        if roll_default and default:
            address = address_inside(default[0].prefix, rng)
            if any(r.prefix.contains(address) for r in specific):
                continue
        else:
            address = address_inside(rng.choice(specific).prefix, rng)
        out.append(address)
    return out
