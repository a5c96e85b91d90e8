"""Integrity-protected routing table: detect corruption, degrade, rebuild.

Wraps any :class:`~repro.routing.base.RoutingTable` with the classic
SRAM protection ladder:

``none``
    Pure pass-through — the unprotected baseline the sweep measures
    SDC rates against.
``parity``
    One even-parity bit per protected record. Free to compute, one bit
    of overhead per record, catches every odd-weight upset (all single
    bit flips) but is blind to even-weight damage in one record.
``checksum``
    A CRC-32 word per protected record: 32 bits of overhead, detects
    all burst damage a bit-flip campaign can produce.

Protection turns silent corruption into *detected* events on three
paths, none of which is allowed to raise out of a lookup:

1. **Hit verification** — every lookup hit is re-verified against the
   stored per-route protection word and a containment check; a mismatch
   quarantines the damaged record (best-effort removal from the inner
   structure) and answers from surviving state.
2. **Miss interception** — the wrapper retains an exact route journal
   (the RIB to the structure's FIB); a miss for an address the journal
   can route is a corruption-induced false negative, detected
   immediately.
3. **Scrub** — :meth:`verify_integrity` re-reads every record of every
   memory site and compares protection words against the
   :meth:`checkpoint` baseline, the background scrubber every SRAM
   controller runs.

Degraded serving: whenever the inner structure cannot be trusted for an
address, the answer comes from a linear LPM over the journal (counted
in ``degraded_lookups`` and ``routing_degraded_lookups_total``) — the
slow-but-safe path. :meth:`rebuild` reconstructs a fresh inner
structure from the journal and re-arms the baseline.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs.catalogue import ROUTING_CORRUPTION_DETECTED, \
    ROUTING_DEGRADED_LOOKUPS
from repro.routing.base import RoutingTable
from repro.routing.entry import LookupResult, RouteEntry
from repro.routing.memimage import pack_entry

PROTECTION_MODES: Tuple[str, ...] = ("none", "parity", "checksum")


@dataclass(frozen=True)
class CorruptionEvent:
    """One scrub finding: a record whose protection word went stale."""

    site: str
    index: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"site": self.site, "index": self.index,
                "detail": self.detail}


class ProtectedRoutingTable(RoutingTable):
    """Parity/checksum wrapper over any routing-table implementation.

    Shares the inner table's ``stats`` object (one accounting stream)
    and reports the inner table's ``kind`` so obs labels stay within the
    ``routing_table_kind`` enum. The memory-corruption seam delegates to
    the inner structure, so the fault injector strikes *through* the
    wrapper exactly as it would the bare table.
    """

    def __init__(self, inner: RoutingTable, protection: str = "checksum"):
        if protection not in PROTECTION_MODES:
            raise RoutingTableError(
                f"unknown protection mode {protection!r}; "
                f"choose from {list(PROTECTION_MODES)}")
        if isinstance(inner, ProtectedRoutingTable):
            raise RoutingTableError(
                "refusing to nest protection wrappers")
        super().__init__(inner.capacity)
        self.inner = inner
        self.protection = protection
        # shadow the class attributes with the wrapped table's identity
        self.kind = inner.kind
        self.hardware_search = inner.hardware_search
        self.stats = inner.stats  # one shared accounting stream
        #: exact route journal — the RIB behind the protected FIB
        self._journal: Dict[Ipv6Prefix, RouteEntry] = {
            entry.prefix: entry for entry in inner}
        self._route_words: Dict[Ipv6Prefix, int] = {}
        self._site_words: Dict[str, List[int]] = {}
        self._scrub_armed = False
        self.detected_corruptions = 0
        self.degraded_lookups = 0
        self.quarantined_routes = 0
        self.rebuilds = 0
        if protection != "none":
            for prefix, entry in self._journal.items():
                self._route_words[prefix] = self._word(pack_entry(entry))

    # -- protection words -------------------------------------------------------

    def _word(self, record: bytes) -> int:
        if self.protection == "checksum":
            return zlib.crc32(record) & 0xFFFFFFFF
        # parity: one even-parity bit over the whole record
        return int.from_bytes(record, "big").bit_count() & 1

    def _record_detection(self, events: int = 1) -> None:
        self.detected_corruptions += events
        ROUTING_CORRUPTION_DETECTED.inc(events, kind=self.kind,
                                        protection=self.protection)

    # -- mandatory interface ----------------------------------------------------

    def _insert(self, entry: RouteEntry) -> int:
        steps = self.inner._insert(entry)
        self._journal[entry.prefix] = entry
        if self.protection != "none":
            self._route_words[entry.prefix] = self._word(pack_entry(entry))
        self._scrub_armed = False
        return steps

    def _remove(self, prefix: Ipv6Prefix) -> int:
        steps = self.inner._remove(prefix)
        self._journal.pop(prefix, None)
        self._route_words.pop(prefix, None)
        self._scrub_armed = False
        return steps

    def _lookup(self, address: Ipv6Address
                ) -> Tuple[Optional[RouteEntry], int]:
        if self.protection == "none":
            return self.inner._lookup(address)
        try:
            entry, steps = self.inner._lookup(address)
        except Exception:
            # fail-stop from a corrupted structure: detected, serve
            # from surviving state instead of propagating the crash
            self._record_detection()
            return self._degraded_lookup(address)
        if entry is None:
            # Trust-but-verify the miss: an address the journal can
            # route was silently dropped by the structure — the classic
            # Bloom false-negative / lost-subtree signature.
            journal_entry = self._journal_lookup(address)
            if journal_entry is not None:
                self._record_detection()
                return self._degraded_lookup(address)
            return None, steps
        if self._verify_hit(entry, address):
            return entry, steps
        self._record_detection()
        self._quarantine(entry.prefix)
        return self._degraded_lookup(address)

    def _account_lookups(
            self, pairs: "Sequence[Tuple[Optional[RouteEntry], int]]"
    ) -> List[Optional[LookupResult]]:
        # stats and kind are shared, and each lookup ran one inner
        # _lookup; the inner table adds what it publishes (CAM busy)
        return self.inner._account_lookups(pairs)

    def _verify_hit(self, entry: RouteEntry, address: Ipv6Address) -> bool:
        try:
            stored = self._route_words.get(entry.prefix)
            return (stored is not None
                    and self._word(pack_entry(entry)) == stored
                    and entry.prefix.contains(address))
        except Exception:
            # a corrupted prefix length can make contains()/hashing
            # blow up — that IS a detection, not a crash
            return False

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        return self.inner.get(prefix)

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(self.inner)

    # -- bulk load (delegate to the inner fast path) ----------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        self.inner.load(entries)
        for entry in entries:
            self._journal[entry.prefix] = entry
        if self.protection != "none":
            for entry in entries:
                self._route_words[entry.prefix] = self._word(
                    pack_entry(entry))
        self._scrub_armed = False

    # -- degraded path ----------------------------------------------------------

    def _journal_lookup(self, address: Ipv6Address) -> Optional[RouteEntry]:
        best: Optional[RouteEntry] = None
        for prefix, entry in self._journal.items():
            if prefix.contains(address) and (
                    best is None or prefix.length > best.prefix.length):
                best = entry
        return best

    def _degraded_lookup(self, address: Ipv6Address
                         ) -> Tuple[Optional[RouteEntry], int]:
        """Serve from the journal: linear, safe, counted."""
        self.degraded_lookups += 1
        ROUTING_DEGRADED_LOOKUPS.inc(kind=self.kind,
                                     protection=self.protection)
        return self._journal_lookup(address), max(1, len(self._journal))

    def _quarantine(self, prefix: Ipv6Prefix) -> None:
        """Best-effort removal of a damaged record from the structure.

        The corrupted record often no longer answers to any valid key
        (that is what corruption does), so failure to remove is
        expected and silent — the journal remains authoritative.
        """
        try:
            self.inner._remove(prefix)
            self.quarantined_routes += 1
        except Exception:
            pass

    # -- scrub / rebuild --------------------------------------------------------

    def checkpoint(self) -> None:
        """Arm the scrub baseline: per-record protection words for every
        memory site. The per-route words need no refresh: every journal
        update keeps them in step."""
        if self.protection == "none":
            self._scrub_armed = True
            return
        self._site_words = {
            site: [self._word(record)
                   for record in self.inner.memory_records(site)]
            for site in self.inner.memory_sites()}
        self._scrub_armed = True

    def verify_integrity(self) -> List[CorruptionEvent]:
        """Scrub every memory site against the checkpoint baseline.

        Returns the corruption events found (empty for ``none``
        protection or before :meth:`checkpoint` arms a baseline); each
        event also counts as a detection.
        """
        if self.protection == "none" or not self._scrub_armed:
            return []
        events: List[CorruptionEvent] = []
        for site, baseline in self._site_words.items():
            try:
                current = self.inner.memory_records(site)
            except Exception as exc:
                events.append(CorruptionEvent(
                    site=site, index=-1,
                    detail=f"site unreadable: {type(exc).__name__}"))
                continue
            if len(current) != len(baseline):
                events.append(CorruptionEvent(
                    site=site, index=-1,
                    detail=f"record count {len(current)} != "
                           f"baseline {len(baseline)}"))
            for index, record in enumerate(current[:len(baseline)]):
                if self._word(record) != baseline[index]:
                    events.append(CorruptionEvent(
                        site=site, index=index,
                        detail="protection word mismatch"))
        if events:
            self._record_detection(len(events))
        return events

    def rebuild(self) -> None:
        """Reconstruct the inner structure from the route journal."""
        fresh = type(self.inner)(capacity=self.inner.capacity)
        fresh.stats = self.stats  # keep the single accounting stream
        fresh.load(list(self._journal.values()))
        self.inner = fresh
        self.rebuilds += 1
        self.checkpoint()

    # -- memory seam (the injector strikes through the wrapper) ----------------

    def memory_sites(self) -> Tuple[str, ...]:
        return self.inner.memory_sites()

    def memory_records(self, site: str) -> List[bytes]:
        return self.inner.memory_records(site)

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        return self.inner.corrupt_memory(site, index, bit)

    # -- introspection ----------------------------------------------------------

    def table_memory_bytes(self) -> int:
        inner_bytes = getattr(self.inner, "table_memory_bytes", None)
        return inner_bytes() if inner_bytes else 0

    def protected_records(self) -> int:
        """Records carrying a protection word (overhead pricing input)."""
        return len(self._journal) + sum(
            len(self.inner.memory_records(site))
            for site in self.inner.memory_sites())

    def protection_stats(self) -> Dict[str, object]:
        return {
            "protection": self.protection,
            "journal_routes": len(self._journal),
            "detected_corruptions": self.detected_corruptions,
            "degraded_lookups": self.degraded_lookups,
            "quarantined_routes": self.quarantined_routes,
            "rebuilds": self.rebuilds,
        }

    def __repr__(self) -> str:
        return (f"<ProtectedRoutingTable {self.protection} over "
                f"{type(self.inner).__name__} "
                f"{len(self)}/{self.capacity} entries>")
