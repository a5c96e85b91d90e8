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
   controller runs. A record whose bytes match the baseline keeps its
   word, so only changed records are worded.

Degraded serving: whenever the inner structure cannot be trusted for an
address, the answer comes from a linear LPM over the journal (counted
in ``degraded_lookups`` and ``routing_degraded_lookups_total``) — the
slow-but-safe path. :meth:`rebuild` reconstructs a fresh inner
structure from the journal and re-arms the baseline.

Checkpoint image: :meth:`checkpoint` also keeps an image of the inner
structure, one ``pickle`` dump that passes every ``RouteEntry``,
``Ipv6Prefix`` and ``Ipv6Address`` by reference instead of copying it.
Sharing them is safe: they are immutable, and a strike never changes
one in place (:mod:`repro.routing.memimage` builds a damaged record as a
new object). :meth:`replica` restores that image into an independent
copy, the target a fault trial damages while the clean table stays
intact, without rebuilding anything from the journal.

Views: a clean table's checkpoint does not depend on its protection, so
:meth:`under` takes one checkpointed table under another protection. The
view shares the structure, the image and the scrub baseline and words
the routes anew, so one load and one checkpoint serve every protection.
"""

from __future__ import annotations

import copy
import io
import pickle
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, \
    Sequence, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs.catalogue import ROUTING_CORRUPTION_DETECTED, \
    ROUTING_DEGRADED_LOOKUPS
from repro.routing.base import RoutingTable
from repro.routing.entry import LookupResult, RouteEntry
from repro.routing.memimage import pack_entry

PROTECTION_MODES: Tuple[str, ...] = ("none", "parity", "checksum")

#: the immutable objects a checkpoint image shares with its table
_SHARED_TYPES = frozenset((RouteEntry, Ipv6Prefix, Ipv6Address))

#: a checkpoint image: the pickled structure, and the shared objects
#: its persistent ids index
_Image = Tuple[bytes, List[object]]


def _dump_image(table: RoutingTable) -> _Image:
    """*table* pickled, its shared objects passed by reference."""
    shared: List[object] = []

    def persistent_id(obj: object) -> Optional[int]:
        if type(obj) in _SHARED_TYPES:
            shared.append(obj)
            return len(shared) - 1
        return None

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(table)
    return buffer.getvalue(), shared


def _load_image(image: _Image) -> RoutingTable:
    """A new structure restored from a :func:`_dump_image` image."""
    data, shared = image
    unpickler = pickle.Unpickler(io.BytesIO(data))
    unpickler.persistent_load = shared.__getitem__
    return unpickler.load()


def _check_protection(protection: str) -> None:
    if protection not in PROTECTION_MODES:
        raise RoutingTableError(
            f"unknown protection mode {protection!r}; "
            f"choose from {list(PROTECTION_MODES)}")


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
        _check_protection(protection)
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
        #: the records of every memory site at the last checkpoint
        self._site_records: Dict[str, List[bytes]] = {}
        #: the inner structure at the last checkpoint
        self._image: Optional[_Image] = None
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
        """Arm the scrub baseline: the records of every memory site. The
        per-route words need no refresh: every journal update keeps them
        in step. Also keep the image :meth:`replica` restores: the inner
        structure and its ``stats`` as they are now, sharing their
        routes, prefixes and addresses with the live structure."""
        if self.protection != "none":
            self._site_records = {
                site: self.inner.memory_records(site)
                for site in self.inner.memory_sites()}
        self._image = _dump_image(self.inner)
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
        word = self._word
        for site, baseline in self._site_records.items():
            try:
                current = self.inner.memory_records(site)
            except Exception as exc:
                events.append(CorruptionEvent(
                    site=site, index=-1,
                    detail=f"site unreadable: {type(exc).__name__}"))
                continue
            if current == baseline:
                continue
            if len(current) != len(baseline):
                events.append(CorruptionEvent(
                    site=site, index=-1,
                    detail=f"record count {len(current)} != "
                           f"baseline {len(baseline)}"))
            # an unchanged record keeps its word; a changed one is
            # caught only if its word changed too (parity misses
            # even-weight damage)
            for index, (record, clean) in enumerate(zip(current, baseline)):
                if record != clean and word(record) != word(clean):
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

    def replica(self) -> "ProtectedRoutingTable":
        """An independent copy of this table as it was checkpointed.

        Its inner structure, ``stats`` included, is restored from the
        :meth:`checkpoint` image, whatever built this table and whatever
        struck it since; the journal and route words are copied, not
        re-worded, and the scrub baseline is taken over, not re-read.
        Nothing done to the copy reaches this table.
        """
        if not self._scrub_armed:
            raise RoutingTableError(
                "replica of an unarmed table; checkpoint() it first")
        twin = copy.copy(self)
        twin.inner = _load_image(self._image)
        twin.stats = twin.inner.stats
        twin._journal = dict(self._journal)
        twin._route_words = dict(self._route_words)
        twin.detected_corruptions = twin.degraded_lookups = 0
        twin.quarantined_routes = twin.rebuilds = 0
        return twin

    def under(self, protection: str) -> "ProtectedRoutingTable":
        """This checkpointed table under *protection*, with no reload
        and no new checkpoint.

        The view shares the inner structure, its image, the journal and
        the scrub baseline; its route words are *protection*'s own, and
        a ``none`` view keeps no baseline. Only a protected table's
        checkpoint reads the baseline its views share. Neither table is
        for lookups or strikes: those go to a :meth:`replica`.
        """
        _check_protection(protection)
        if self.protection == "none" or not self._scrub_armed:
            raise RoutingTableError(
                "view of a table with no scrub baseline; checkpoint() a "
                "protected table first")
        view = copy.copy(self)
        view.protection = protection
        view._route_words = {}
        view._site_records = {}
        if protection != "none":
            view._route_words = {prefix: view._word(pack_entry(entry))
                                 for prefix, entry in self._journal.items()}
            view._site_records = self._site_records
        return view

    # -- memory seam (the injector strikes through the wrapper) ----------------

    def memory_sites(self) -> Tuple[str, ...]:
        return self.inner.memory_sites()

    def memory_records(self, site: str) -> List[bytes]:
        return self.inner.memory_records(site)

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        return self.inner.corrupt_memory(site, index, bit)

    def lookup_reads(self, address: Ipv6Address
                     ) -> Tuple[Optional[RouteEntry], int,
                                Tuple[Hashable, ...]]:
        return self.inner.lookup_reads(address)

    def strike_reads(self, site: str, index: int, bit: int
                     ) -> Tuple[Tuple[Hashable, ...],
                                Optional[Callable[[int], bool]]]:
        return self.inner.strike_reads(site, index, bit)

    # -- introspection ----------------------------------------------------------

    def table_memory_bytes(self) -> int:
        inner_bytes = getattr(self.inner, "table_memory_bytes", None)
        return inner_bytes() if inner_bytes else 0

    def protected_records(self) -> int:
        """Records carrying a protection word (overhead pricing input)."""
        return len(self._journal) + sum(
            len(self.inner.memory_records(site))
            for site in self.inner.memory_sites())

    def __repr__(self) -> str:
        return (f"<ProtectedRoutingTable {self.protection} over "
                f"{type(self.inner).__name__} "
                f"{len(self)}/{self.capacity} entries>")
