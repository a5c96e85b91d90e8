"""Abstract routing-table interface and shared bookkeeping.

All implementations (sequential cache memory, balanced tree, CAM,
multibit trie, Bloom-assisted hash tables) expose identical
longest-prefix-match semantics; they differ only in how many elements a
lookup examines and in their physical cost models. The
identical-semantics claim is enforced by property-based tests.

Replace-cost convention: when ``insert`` replaces an existing prefix,
every implementation reports ``steps`` as the elements examined to
locate the slot plus one write. Fresh inserts additionally count the
writes needed to keep the structure's physical discipline (tail shifts
for the sequential array, adoption links for the tree, displaced lines
for the TCAM).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs.catalogue import ROUTING_LOOKUP_STEPS, ROUTING_LOOKUPS, \
    ROUTING_UPDATE_STEPS, ROUTING_UPDATES
from repro.routing.entry import LookupResult, RouteEntry

DEFAULT_CAPACITY = 100
"""The paper's design constraint: "a maximum size of 100 entries"."""


@dataclass
class TableStatistics:
    """Cumulative access statistics, the raw input to the cycle models."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    total_lookup_steps: int = 0
    inserts: int = 0
    removals: int = 0
    total_update_steps: int = 0

    def record_update(self, steps: int, insert: bool) -> None:
        self.total_update_steps += steps
        if insert:
            self.inserts += 1
        else:
            self.removals += 1

    @property
    def mean_lookup_steps(self) -> float:
        return self.total_lookup_steps / self.lookups if self.lookups else 0.0


class FirstMatchIndex:
    """What a first-hit scan over ``(mask, value, entry)`` rows finds.

    The rows are in scan order; a value matches a row when ``value &
    mask == row value``. :meth:`find` answers as the scan does, on any
    rows: each distinct mask files its rows in one hash map (the first
    position wins a repeated value), the maps are probed in order of
    their first position, and probing stops once a map's first position
    lies past the best hit. Rows grouped by descending prefix length (a
    clean table) stop right after the first hit.
    """

    def __init__(self, rows: "Sequence[Tuple[int, int, RouteEntry]]"):
        groups: "List[Tuple[int, int, Dict[int, Tuple[int, RouteEntry]]]]" = []
        by_mask: "Dict[int, Dict[int, Tuple[int, RouteEntry]]]" = {}
        for position, (mask, value, entry) in enumerate(rows):
            table = by_mask.get(mask)
            if table is None:
                table = by_mask[mask] = {}
                groups.append((position, mask, table))
            if value not in table:
                table[value] = (position, entry)
        #: how many rows the index holds
        self.size = len(rows)
        self._groups = groups

    def find(self, value: int) -> "Optional[Tuple[int, RouteEntry]]":
        """The first ``(position, entry)`` of a row *value* matches."""
        best: "Optional[Tuple[int, RouteEntry]]" = None
        for first, mask, table in self._groups:
            if best is not None and first > best[0]:
                break
            hit = table.get(value & mask)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        return best


class RoutingTable(ABC):
    """Longest-prefix-match routing table with bounded capacity."""

    #: short identifier used in reports and Table 1 rows
    kind: str = "abstract"

    #: True when the structure is modelled as a hardware search engine
    #: (CAM, multibit trie, Bloom filter bank): the TTA datapath triggers
    #: one search operation instead of walking a memory image.
    hardware_search: bool = False

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise RoutingTableError(f"capacity must be positive: {capacity}")
        self._capacity = capacity
        self.stats = TableStatistics()

    # -- mandatory interface -------------------------------------------------

    @abstractmethod
    def _insert(self, entry: RouteEntry) -> int:
        """Insert or replace; returns elements touched (update cost)."""

    @abstractmethod
    def _remove(self, prefix: Ipv6Prefix) -> int:
        """Remove; returns elements touched. Raises if absent."""

    @abstractmethod
    def _lookup(self, address: Ipv6Address) -> "tuple[Optional[RouteEntry], int]":
        """Find the longest matching prefix; returns (entry|None, steps)."""

    @abstractmethod
    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        """Exact-prefix fetch (used by the RIPng engine), no LPM."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[RouteEntry]: ...

    # -- shared behaviour ------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def insert(self, entry: RouteEntry) -> None:
        """Insert a route, replacing any entry with the same prefix."""
        if self.get(entry.prefix) is None and len(self) >= self._capacity:
            raise RoutingTableError(
                f"routing table full ({self._capacity} entries)")
        steps = self._insert(entry)
        self.stats.record_update(steps, insert=True)
        self._publish_update(steps, op="insert")

    def remove(self, prefix: Ipv6Prefix) -> None:
        steps = self._remove(prefix)
        self.stats.record_update(steps, insert=False)
        self._publish_update(steps, op="remove")

    def lookup(self, address: Ipv6Address) -> Optional[LookupResult]:
        """Longest-prefix match for *address*; None when no route exists.

        Fail-stop contract: a lookup either answers or raises
        :class:`~repro.errors.RoutingTableError` — never ``KeyError``,
        ``IndexError``, or any other structural exception. A corrupted
        structure (see :mod:`repro.faults.memory`) must surface as a
        *detectable* routing failure, not an arbitrary crash.
        """
        try:
            entry, steps = self._lookup(address)
        except RoutingTableError:
            raise
        except Exception as exc:
            raise RoutingTableError(
                f"corrupt {self.kind} state during lookup: "
                f"{type(exc).__name__}: {exc}") from exc
        return self._account_lookups(((entry, steps),))[0]

    def lookup_batch(
            self, addresses: Sequence[Ipv6Address]
    ) -> List[Optional[LookupResult]]:
        """Longest-prefix match for every address in *addresses*.

        Identical to ``[self.lookup(a) for a in addresses]`` — same
        results, same ``stats`` updates, same obs counters — on any
        state, a table damaged by :meth:`corrupt_memory` included; the
        accounting is one update for the whole batch. Shares the
        fail-stop contract of :meth:`lookup`: the batch raises
        :class:`~repro.errors.RoutingTableError` exactly when one of its
        per-address lookups would, and no partial results are accounted.
        """
        try:
            pairs = list(map(self._lookup, addresses))
        except RoutingTableError:
            raise
        except Exception as exc:
            raise RoutingTableError(
                f"corrupt {self.kind} state during batch lookup: "
                f"{type(exc).__name__}: {exc}") from exc
        return self._account_lookups(pairs)

    def _account_lookups(
            self, pairs: "Sequence[Tuple[Optional[RouteEntry], int]]"
    ) -> List[Optional[LookupResult]]:
        """Stats for raw ``(entry, steps)`` pairs; ``stats`` and each
        counter then get what the same lookups one at a time would add,
        in one update."""
        results: List[Optional[LookupResult]] = []
        append = results.append
        hits = steps_total = 0
        for entry, steps in pairs:
            steps_total += steps
            if entry is None:
                append(None)
            else:
                hits += 1
                append(LookupResult(entry, steps))
        misses = len(results) - hits
        stats = self.stats
        stats.lookups += len(results)
        stats.hits += hits
        stats.misses += misses
        stats.total_lookup_steps += steps_total
        if hits:
            ROUTING_LOOKUPS.inc(hits, kind=self.kind, outcome="hit")
        if misses:
            ROUTING_LOOKUPS.inc(misses, kind=self.kind, outcome="miss")
        if results:
            ROUTING_LOOKUP_STEPS.inc(steps_total, kind=self.kind)
        return results

    def _publish_update(self, steps: int, op: str) -> None:
        ROUTING_UPDATES.inc(kind=self.kind, op=op)
        ROUTING_UPDATE_STEPS.inc(steps, kind=self.kind)

    def entries(self) -> List[RouteEntry]:
        return list(self)

    def clear(self) -> None:
        """Remove every route through the accounted removal path.

        Goes through :meth:`remove` so ``stats.removals`` and the
        ``routing_updates_total{op=remove}`` counter see every entry a
        clear drops (RIPng flushes and fixture resets previously
        bypassed both by calling ``_remove`` directly).
        """
        for entry in self.entries():
            self.remove(entry.prefix)

    def load(self, entries: "list[RouteEntry]") -> None:
        """Bulk-insert (used by workload generators and benchmarks).

        Performs ONE up-front capacity check for the whole batch instead
        of a per-entry ``get`` probe, then feeds entries through
        ``_insert`` with the usual accounting. Implementations override
        this with true bulk builds (single sort for the sequential
        array, single-pass enclosing-chain construction for the tree);
        overrides must keep the hit/miss/insert/removal *counts* in
        ``stats`` identical to this path, while ``total_update_steps``
        reflects the (cheaper) bulk build cost.
        """
        self._check_bulk_capacity(entries)
        for entry in entries:
            steps = self._insert(entry)
            self.stats.record_update(steps, insert=True)
            self._publish_update(steps, op="insert")

    def _check_bulk_capacity(self, entries: "list[RouteEntry]") -> None:
        """Raise if loading *entries* would overflow; no partial load."""
        new_prefixes = {entry.prefix for entry in entries}
        if len(self):
            already = sum(1 for prefix in new_prefixes
                          if self.get(prefix) is not None)
        else:
            already = 0
        if len(self) + len(new_prefixes) - already > self._capacity:
            raise RoutingTableError(
                f"routing table full ({self._capacity} entries)")

    def _account_bulk_load(self, inserts: int, steps: int) -> None:
        """Accounting for a bulk build: *inserts* entries written with
        *steps* total elements touched (published as one aggregate)."""
        self.stats.inserts += inserts
        self.stats.total_update_steps += steps
        ROUTING_UPDATES.inc(inserts, kind=self.kind, op="insert")
        ROUTING_UPDATE_STEPS.inc(steps, kind=self.kind)

    # -- memory-state introspection/corruption seam ---------------------------
    #
    # The table-state fault injector (repro.faults.memory) and the
    # integrity wrapper (repro.routing.protected) see every structure
    # through these three methods. A site is one physical memory bank
    # (entry array, node pool, match lines, counter vector); its records
    # enumerate deterministically so that seeded strikes and scrub
    # baselines agree across processes.

    def memory_sites(self) -> Tuple[str, ...]:
        """Physical state banks this structure exposes for injection."""
        return ()

    def memory_records(self, site: str) -> List[bytes]:
        """The raw memory image of every record at *site*, in
        enumeration order."""
        raise RoutingTableError(
            f"{self.kind} table has no memory site {site!r}")

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        """Flip *bit* of record *index* at *site* in the live structure.

        Returns a short human-readable description of what was damaged
        (kept in the fault record for post-mortem). Must bypass all
        software validation — this models an SEU, not an API call.
        """
        raise RoutingTableError(
            f"{self.kind} table has no memory site {site!r}")

    def _check_memory_index(self, site: str, index: int, count: int) -> None:
        if not 0 <= index < count:
            raise RoutingTableError(
                f"{self.kind} {site} index {index} out of range "
                f"[0, {count})")

    def __contains__(self, prefix: Ipv6Prefix) -> bool:
        return self.get(prefix) is not None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {len(self)}/{self._capacity} entries>"
