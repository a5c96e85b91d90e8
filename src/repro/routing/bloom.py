"""Bloom-assisted hash-per-prefix-length routing table.

The Dharmapurikar-style longest-prefix-match scheme: one exact-match
hash table per distinct prefix length, fronted by a bank of on-chip
Bloom filters (one per length). A lookup probes every filter in
parallel — a single pipeline step in hardware — then queries the
off-filter hash tables only for the lengths whose filter answered
"maybe", longest first, stopping at the first real hit. With correctly
sized filters the expected number of hash-table accesses per lookup is
barely above one, independent of table size — which is what lets this
structure hold a million prefixes without the linear or logarithmic
step growth of the scan/tree tables.

Modelling choices
-----------------
* ``steps`` = 1 (the parallel filter-bank probe) + one step per hash
  table actually queried. False positives therefore show up honestly
  as extra steps.
* Filters are *counting* Bloom filters (bytearray counters) so removals
  decrement cleanly; a counter that saturates at 255 becomes sticky,
  which can only cause false positives, never false negatives.
* Hash functions are double-hashed from a keyed blake2b digest —
  deterministic across processes so campaign runs stay byte-identical.
* Each length's filter is sized from that length's entry count
  (:data:`SLOTS_PER_ENTRY` counters each) and rebuilt on power-of-two
  growth, keeping the false-positive rate roughly constant as the
  table grows.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix, prefix_mask
from repro.routing.base import DEFAULT_CAPACITY, RoutingTable
from repro.routing.entry import RouteEntry
from repro.routing.memimage import corrupt_entry, pack_entry

SLOTS_PER_ENTRY = 16
"""Counting-filter slots per stored prefix (~1e-4 false-positive rate
at 6 hash functions)."""

HASH_COUNT = 6

_MIN_FILTER_SLOTS = 64

BLOOM_SEARCH_LATENCY_CYCLES = 4
"""Static hardware pipeline: hash generation, parallel filter-bank
probe, and two provisioned hash-table memory reads."""


_LOW_64 = (1 << 64) - 1


def _hash_pair(tag: bytes, value: int) -> Tuple[int, int]:
    """Double-hashing seeds for *value* in the length class tagged *tag*
    (its length as 2 big-endian bytes): the two halves of one digest."""
    digest = int.from_bytes(hashlib.blake2b(
        tag + value.to_bytes(16, "big"), digest_size=16).digest(), "big")
    return digest >> 64, (digest & _LOW_64) | 1  # odd => full period


class _LengthClass:
    """All state for one prefix length: exact table + counting filter."""

    __slots__ = ("length", "tag", "mask", "entries", "counters", "slots")

    def __init__(self, length: int, slots: int):
        self.length = length
        #: the length as hashed into every filter key
        self.tag = length.to_bytes(2, "big")
        self.mask = prefix_mask(length)
        #: masked network value -> entry (insertion-ordered)
        self.entries: Dict[int, RouteEntry] = {}
        self.slots = slots
        self.counters = bytearray(slots)

    def filter_positive(self, value: int) -> bool:
        # probe i reads (h1 + i*h2) % slots; reducing h1 and h2 once and
        # stepping by addition visits the same counters
        h1, h2 = _hash_pair(self.tag, value)
        counters, slots = self.counters, self.slots
        index = h1 % slots
        step = h2 % slots
        for _ in range(HASH_COUNT):
            if not counters[index]:
                return False
            index += step
            if index >= slots:
                index -= slots
        return True

    def filter_add(self, value: int) -> None:
        h1, h2 = _hash_pair(self.tag, value)
        counters, slots = self.counters, self.slots
        for i in range(HASH_COUNT):
            index = (h1 + i * h2) % slots
            if counters[index] < 255:
                counters[index] += 1

    def filter_discard(self, value: int) -> None:
        h1, h2 = _hash_pair(self.tag, value)
        counters, slots = self.counters, self.slots
        for i in range(HASH_COUNT):
            index = (h1 + i * h2) % slots
            if 0 < counters[index] < 255:  # 255 is sticky (saturated)
                counters[index] -= 1


def _sized_slots(count: int) -> int:
    slots = _MIN_FILTER_SLOTS
    while slots < count * SLOTS_PER_ENTRY:
        slots <<= 1
    return slots


class BloomRoutingTable(RoutingTable):
    """Per-length hash tables behind a parallel Bloom-filter bank."""

    kind = "bloom"
    hardware_search = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        #: length -> class, kept keyed; probe order derived on demand
        self._classes: Dict[int, _LengthClass] = {}
        #: distinct lengths, descending (the probe order)
        self._lengths_desc: List[int] = []
        self._count = 0

    # -- length-class maintenance ---------------------------------------------

    def _class_for(self, length: int) -> _LengthClass:
        cls = self._classes.get(length)
        if cls is None:
            cls = _LengthClass(length, _sized_slots(1))
            self._classes[length] = cls
            self._lengths_desc.append(length)
            self._lengths_desc.sort(reverse=True)
        return cls

    def _drop_if_empty(self, cls: _LengthClass) -> None:
        if not cls.entries:
            del self._classes[cls.length]
            self._lengths_desc.remove(cls.length)

    def _maybe_grow(self, cls: _LengthClass) -> None:
        if len(cls.entries) * SLOTS_PER_ENTRY <= cls.slots:
            return
        cls.slots = _sized_slots(len(cls.entries))
        cls.counters = bytearray(cls.slots)
        for value in cls.entries:
            cls.filter_add(value)

    # -- core operations -------------------------------------------------------

    def _insert(self, entry: RouteEntry) -> int:
        prefix = entry.prefix
        cls = self._class_for(prefix.length)
        value = prefix.network.value
        if value in cls.entries:
            cls.entries[value] = entry
            return 2  # one table probe + one bucket write
        cls.entries[value] = entry
        cls.filter_add(value)
        self._maybe_grow(cls)
        self._count += 1
        # one probe + one bucket write + the filter-counter updates
        return 2 + HASH_COUNT

    def _remove(self, prefix: Ipv6Prefix) -> int:
        cls = self._classes.get(prefix.length)
        value = prefix.network.value
        if cls is None or value not in cls.entries:
            raise RoutingTableError(f"no such route: {prefix}")
        del cls.entries[value]
        cls.filter_discard(value)
        self._count -= 1
        self._drop_if_empty(cls)
        return 2 + HASH_COUNT

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        value = address.value
        classes = self._classes
        steps = 1  # the parallel Bloom-bank probe counts once
        for length in self._lengths_desc:
            # .get, not []: a corrupted probe-order list must degrade to
            # skipping the phantom length, not crash with a KeyError
            cls = classes.get(length)
            if cls is None:
                continue
            masked = value & cls.mask
            if not cls.filter_positive(masked):
                continue
            steps += 1  # off-filter hash-table access
            entry = cls.entries.get(masked)
            if entry is not None:
                return entry, steps
        return None, steps

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        cls = self._classes.get(prefix.length)
        if cls is None:
            return None
        return cls.entries.get(prefix.network.value)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RouteEntry]:
        out: List[RouteEntry] = []
        for length in self._lengths_desc:
            out.extend(self._classes[length].entries.values())
        return iter(out)

    # -- bulk load -------------------------------------------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        """Bulk build from empty: fill the per-length tables first, then
        size each filter once from the final counts (the per-insert path
        pays power-of-two rebuild cascades)."""
        if self._count:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: Dict[Ipv6Prefix, RouteEntry] = {}
        for entry in entries:
            merged[entry.prefix] = entry
        for prefix, entry in merged.items():
            cls = self._class_for(prefix.length)
            cls.entries[prefix.network.value] = entry
        for cls in self._classes.values():
            cls.slots = _sized_slots(len(cls.entries))
            cls.counters = bytearray(cls.slots)
            for value in cls.entries:
                cls.filter_add(value)
        self._count = len(merged)
        self._account_bulk_load(len(entries), len(merged))

    # -- hardware search model -------------------------------------------------

    def search_latency_cycles(self) -> int:
        return BLOOM_SEARCH_LATENCY_CYCLES

    # -- introspection ---------------------------------------------------------

    def table_memory_bytes(self) -> int:
        """On-chip footprint: the Bloom-filter bank at 4-bit hardware
        counters (the per-length hash tables live off-chip, like the
        CAM option's SRAM)."""
        return sum((cls.slots + 1) // 2 for cls in self._classes.values())

    # -- memory-state corruption seam ------------------------------------------
    #
    # Two sites:
    #
    # * ``bloom-filter`` — one record per length class (lengths
    #   descending): the class's whole counter vector. Flipping a bit
    #   that zeroes a counter a stored prefix hashes through creates a
    #   *false negative* — the filter now vetoes the off-chip probe and
    #   the lookup silently misses to a shorter prefix (the signature
    #   Bloom-bank SDC); flips that only raise counters merely cost
    #   false-positive steps.
    # * ``bloom-bucket`` — one record per stored entry (lengths
    #   descending, insertion order within a class): the 38-byte bucket
    #   payload, corrupted in place under its original hash key.

    def memory_sites(self) -> Tuple[str, ...]:
        return ("bloom-filter", "bloom-bucket")

    def _bucket_records(self) -> List[Tuple[_LengthClass, int]]:
        return [(cls, value)
                for length in self._lengths_desc
                if (cls := self._classes.get(length)) is not None
                for value in cls.entries]

    def memory_records(self, site: str) -> List[bytes]:
        if site == "bloom-filter":
            return [bytes(self._classes[length].counters)
                    for length in self._lengths_desc]
        if site == "bloom-bucket":
            return [pack_entry(cls.entries[value])
                    for cls, value in self._bucket_records()]
        return super().memory_records(site)

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site == "bloom-filter":
            self._check_memory_index(site, index, len(self._lengths_desc))
            cls = self._classes[self._lengths_desc[index]]
            cls.counters[bit // 8] ^= 1 << (bit % 8)
            return (f"bloom-filter[{index}] /{cls.length} "
                    f"counter {bit // 8} bit {bit % 8}")
        if site == "bloom-bucket":
            records = self._bucket_records()
            self._check_memory_index(site, index, len(records))
            cls, value = records[index]
            before = cls.entries[value].prefix
            cls.entries[value] = corrupt_entry(cls.entries[value], bit)
            return f"bloom-bucket[{index}] bit {bit} ({before})"
        return super().corrupt_memory(site, index, bit)

    def check_invariants(self) -> None:
        """Raise if filter/table state diverged: every stored prefix must
        be filter-positive (no false negatives), counts must add up, and
        the probe order must be strictly descending."""
        total = 0
        for length, cls in self._classes.items():
            if not cls.entries:
                raise RoutingTableError(f"empty length class /{length}")
            total += len(cls.entries)
            for value in cls.entries:
                if not cls.filter_positive(value):
                    raise RoutingTableError(
                        f"false negative for stored prefix at /{length}")
        if total != self._count:
            raise RoutingTableError(
                f"count {self._count} != stored {total}")
        if self._lengths_desc != sorted(self._classes, reverse=True):
            raise RoutingTableError("probe order diverged from classes")
