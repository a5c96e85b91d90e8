"""Realistic large-FIB synthesis: skewed lengths, aggregatable blocks,
Zipf traffic.

``generate_routes`` (tables.py) draws prefixes independently and
uniformly, which is fine at the paper's 100-entry design point but
wrong at FIB scale: real IPv6 tables are dominated by /48 site routes
and /32 provider allocations, and more-specific prefixes overwhelmingly
nest inside announced provider blocks. This module synthesizes FIBs
with those properties:

* **Skewed prefix-length distribution** — a BGP-table-shaped histogram
  (most mass on /48 and /32, a long tail elsewhere) instead of a
  uniform choice.
* **Aggregatable allocations** — provider /24–/32 blocks are drawn
  first; site and subnet prefixes are then carved *inside* a
  Zipf-chosen provider block, so the nesting depth and shared-stem
  structure match deployed tables (this is what exercises enclosing
  chains, trie compression, and per-length table occupancy
  realistically).
* **Zipf-skewed traffic** — ``zipf_addresses`` ranks routes by a
  Zipf(s) law so a handful of hot prefixes absorb most lookups, the
  standard traffic model for cache-friendliness studies.

Everything is deterministic in the seed, so campaign cells remain
byte-identical across runs, resumes, and process pools.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing.entry import RouteEntry
from repro.workload.tables import (
    GLOBAL_UNICAST_PREFIX,
    INTERFACE_COUNT,
    address_inside,
)

#: (prefix length, weight) histogram shaped like a contemporary BGP
#: IPv6 table: /48 site routes dominate, /32 provider allocations next,
#: with a tail of intermediate aggregates and /64 subnet leaks.
FIB_LENGTH_WEIGHTS: Tuple[Tuple[int, int], ...] = (
    (29, 2), (32, 24), (36, 5), (40, 7), (44, 6),
    (48, 45), (56, 4), (64, 7),
)

#: fraction of non-provider prefixes carved inside an existing provider
#: block (the aggregatable share; the rest are independent allocations)
AGGREGATABLE_FRACTION = 0.8

#: lengths at or below this are treated as provider blocks
PROVIDER_MAX_LENGTH = 32

ZIPF_EXPONENT = 1.1


def _global_unicast(value: int) -> int:
    """Force the top three bits to 001 (2000::/3) like tables.py does."""
    return (value & ~(0b111 << 125)) | (0b001 << 125)


def synthesize_fib(prefix_count: int, seed: int = 2026) -> List[RouteEntry]:
    """*prefix_count* unique routes with realistic FIB structure.

    The default route is included in the count (as in
    ``generate_routes``); provider blocks are synthesized first so
    later, longer prefixes can nest inside them.
    """
    if prefix_count < 1:
        raise ValueError(f"need at least one prefix: {prefix_count}")
    rng = random.Random(seed)
    routes: List[RouteEntry] = []
    seen = set()

    def emit(prefix: Ipv6Prefix, metric: int = 1) -> bool:
        if prefix in seen:
            return False
        seen.add(prefix)
        routes.append(RouteEntry(
            prefix=prefix,
            next_hop=Ipv6Address(GLOBAL_UNICAST_PREFIX | len(routes)),
            interface=len(routes) % INTERFACE_COUNT,
            metric=metric))
        return True

    emit(Ipv6Prefix.parse("::/0"))

    lengths = [length for length, _ in FIB_LENGTH_WEIGHTS]
    weights = [weight for _, weight in FIB_LENGTH_WEIGHTS]
    provider_lengths = [length for length in lengths
                        if length <= PROVIDER_MAX_LENGTH]
    providers: List[Ipv6Prefix] = []
    # Zipf-ranked providers: provider i is chosen with weight 1/(i+1),
    # so early (large) providers accumulate the most customer routes.
    provider_harmonic: List[float] = []

    def pick_provider() -> Ipv6Prefix:
        roll = rng.random() * provider_harmonic[-1]
        index = bisect_left(provider_harmonic, roll)
        return providers[min(index, len(providers) - 1)]

    while len(routes) < prefix_count:
        length = rng.choices(lengths, weights=weights)[0]
        if length <= PROVIDER_MAX_LENGTH or not providers \
                or rng.random() >= AGGREGATABLE_FRACTION:
            # Independent allocation anywhere in 2000::/3.
            value = _global_unicast(rng.getrandbits(128))
            prefix = Ipv6Prefix.of(Ipv6Address(value), length)
        else:
            # Carve a more-specific prefix inside a hot provider block.
            block = pick_provider()
            if length <= block.length:
                continue
            sub_bits = rng.getrandbits(128) & ~block.mask()
            prefix = Ipv6Prefix.of(
                Ipv6Address(block.network.value | sub_bits), length)
        if not emit(prefix):
            continue
        if length in provider_lengths:
            providers.append(prefix)
            previous = provider_harmonic[-1] if provider_harmonic else 0.0
            provider_harmonic.append(previous + 1.0 / len(providers))
    return routes


def zipf_addresses(routes: Sequence[RouteEntry], count: int,
                   seed: int = 77) -> List[Ipv6Address]:
    """*count* destination addresses, Zipf-skewed over *routes*.

    Routes are ranked in a seed-deterministic shuffle; rank r receives
    weight ``1/(r+1)^ZIPF_EXPONENT``, so a few hot prefixes dominate the
    traffic. Sampling bisects the cumulative weights, O(log n) per
    address, so million-route tables stay cheap.
    """
    if count < 0:
        raise ValueError(f"negative address count: {count}")
    if not routes:
        raise ValueError("no routes to draw traffic for")
    rng = random.Random(seed)
    ranked = list(routes)
    rng.shuffle(ranked)
    cumulative: List[float] = []
    total = 0.0
    exponent = ZIPF_EXPONENT
    for rank in range(len(ranked)):
        total += 1.0 / ((rank + 1) ** exponent)
        cumulative.append(total)
    last = len(cumulative) - 1
    out: List[Ipv6Address] = []
    for _ in range(count):
        index = min(bisect_left(cumulative, rng.random() * total), last)
        out.append(address_inside(ranked[index].prefix, rng))
    return out
