"""Sequential routing table: entries laid out linearly in cache memory.

This is the paper's first implementation option ("a cache memory in which
the entries are organized sequentially", §4). A lookup scans every entry
because a *longest* match requires seeing all candidates unless the scan
order guarantees specificity; we keep entries sorted by descending prefix
length, so the first hit is the longest match and the scan can stop there —
still linear in the worst case (a miss examines all entries), exactly the
behaviour that drives the 6 GHz requirement in Table 1.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import ADDRESS_BITS, Ipv6Address, Ipv6Prefix, \
    prefix_mask
from repro.routing.base import DEFAULT_CAPACITY, FirstMatchIndex, \
    RoutingTable
from repro.routing.entry import RouteEntry
from repro.routing.memimage import corrupt_entry, pack_entry


class SequentialRoutingTable(RoutingTable):
    """Linear-scan table over a specificity-ordered entry list."""

    kind = "sequential"

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        self._entries: List[RouteEntry] = []
        #: first-match index over ``_entries``; every write drops it
        self._index: Optional[FirstMatchIndex] = None

    # -- core operations -----------------------------------------------------

    def _insert(self, entry: RouteEntry) -> int:
        self._index = None
        steps = 0
        for i, existing in enumerate(self._entries):
            steps += 1
            if existing.prefix == entry.prefix:
                self._entries[i] = entry
                return steps + 1
        # Insert keeping descending prefix-length order (stable within a
        # length class): find the first slot with a shorter prefix.
        position = len(self._entries)
        for i, existing in enumerate(self._entries):
            if existing.prefix.length < entry.prefix.length:
                position = i
                break
        self._entries.insert(position, entry)
        # Shifting the tail models the memory writes a real cache-memory
        # table performs to keep the array contiguous.
        return steps + (len(self._entries) - position)

    def _remove(self, prefix: Ipv6Prefix) -> int:
        for i, existing in enumerate(self._entries):
            if existing.prefix == prefix:
                del self._entries[i]
                self._index = None
                return i + 1 + (len(self._entries) - i)
        raise RoutingTableError(f"no such route: {prefix}")

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        """The scan's answer and cost (a hit at position *i* costs
        ``i + 1`` steps, a miss ``len(self)``), from the first-match
        index. The index stops before the first entry whose length has
        no mask; an address it misses fails there, as the scan does."""
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        match = index.find(address.value)
        if match is not None:
            return match[1], match[0] + 1
        entries = self._entries
        if index.size < len(entries):
            # raises the scan's own out-of-range error
            prefix_mask(entries[index.size].prefix.length)
        return None, len(entries)

    def _build_index(self) -> FirstMatchIndex:
        rows: List[Tuple[int, int, RouteEntry]] = []
        for entry in self._entries:
            length = entry.prefix.length
            if not 0 <= length <= ADDRESS_BITS:
                break
            rows.append((prefix_mask(length), entry.prefix.network.value,
                         entry))
        return FirstMatchIndex(rows)

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        for entry in self._entries:
            if entry.prefix == prefix:
                return entry
        return None

    # -- bulk fast paths ------------------------------------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        """Single-sort bulk build (the per-insert path is O(n²)).

        Only valid from an empty table; otherwise falls back to the
        accounted per-insert path. Placement is identical to repeated
        ``insert``: descending prefix length, stable by first arrival
        within a length class, later duplicates replacing earlier ones
        in place. The bulk cost is one write per stored entry.
        """
        if self._entries:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: Dict[Ipv6Prefix, RouteEntry] = {}
        for entry in entries:
            merged[entry.prefix] = entry
        self._entries = sorted(
            merged.values(), key=lambda entry: -entry.prefix.length)
        self._index = None
        self._account_bulk_load(len(entries), len(merged))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(list(self._entries))

    # -- memory-state corruption seam ------------------------------------------

    def memory_sites(self) -> Tuple[str, ...]:
        return ("entry",)

    def memory_records(self, site: str) -> List[bytes]:
        if site != "entry":
            return super().memory_records(site)
        return [pack_entry(entry) for entry in self._entries]

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site != "entry":
            return super().corrupt_memory(site, index, bit)
        self._check_memory_index(site, index, len(self._entries))
        before = self._entries[index]
        self._entries[index] = corrupt_entry(before, bit)
        self._index = None
        return f"entry[{index}] bit {bit} ({before.prefix})"

    def lookup_reads(self, address: Ipv6Address
                     ) -> Tuple[Optional[RouteEntry], int, Tuple[int, ...]]:
        """The scan's answer and cost, read by the scan position of the
        answering entry (a miss answers from no entry)."""
        entry, steps = self._lookup(address)
        return entry, steps, () if entry is None else (steps - 1,)

    def strike_reads(self, site: str, index: int, bit: int
                     ) -> Tuple[Tuple[int, ...],
                                Optional[Callable[[int], bool]]]:
        """The lookups the struck entry answered, and every address its
        new prefix matches (one an earlier entry answers keeps its
        answer, so this is a superset). A length with no mask fails the
        scan of every lookup that reaches the entry: every address."""
        if site != "entry":
            return super().strike_reads(site, index, bit)
        prefix = corrupt_entry(self._entries[index], bit).prefix
        if not 0 <= prefix.length <= ADDRESS_BITS:
            return (index,), lambda value: True
        mask = prefix_mask(prefix.length)
        network = prefix.network.value
        return (index,), lambda value: value & mask == network

    # -- memory image (for the TACO data memory) ------------------------------

    def memory_layout(self) -> List[RouteEntry]:
        """The scan order, used to serialise the table into data memory."""
        return list(self._entries)

    def table_memory_bytes(self) -> int:
        """On-chip cache footprint: the 16-word RTU stride per entry."""
        return len(self._entries) * 64
