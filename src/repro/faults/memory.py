"""Table-state soft-error injection: bit flips in the stored FIB.

The datapath injector (:mod:`repro.faults.datapath`) models upsets in
flight — bus transports and FU latches. At FIB scale the dominant
exposure is the *resident* state instead: megabytes of SRAM holding
entries, tree nodes, TCAM rows, trie pages, and Bloom counters sit in
the particle flux for the whole uptime of the router, not just for the
nanoseconds a value spends on a wire. This module flips bits in that
stored state, through the narrow memory seam every
:class:`~repro.routing.base.RoutingTable` implementation exposes:

* ``memory_sites()`` — which of the canonical :data:`MEMORY_SITES` the
  structure physically has;
* ``memory_records(site)`` — a deterministic enumeration of that
  site's records as raw bytes, read in one pass;
* ``corrupt_memory(site, index, bit)`` — flip one bit of one record
  *in the live structure*, exactly as an SEU would, bypassing every
  validation layer the software API enforces.

Determinism contract (the memory differential oracle depends on it):
each site owns a private generator seeded with
:func:`~repro.faults.seeds.derive_seed`\\ ``(seed, site)``, so a site's
flip sequence depends only on the root seed and the table contents —
injecting at another site never reshuffles it.

Entry corruption model
----------------------
Stored routes are modelled as a packed 304-bit record (network 128 +
length 8 + next hop 128 + interface 16 + metric 8 + route tag 16),
laid out by :mod:`repro.routing.memimage`.
A flip is applied to the packed image and the record is rebuilt
*without validation* (``object.__new__`` construction): a corrupted
prefix length of 203 or a metric of 97 exists silently in memory, just
like real SRAM corruption, and only fails — if it fails at all — when a
lookup touches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.faults.datapath import MAX_FAULT_RECORDS
from repro.faults.seeds import derive_seed, make_rng

#: canonical table-state fault sites, in application-precedence order
MEMORY_SITES: Tuple[str, ...] = (
    "entry",         # sequential: one packed route record in the array
    "tree-node",     # balanced tree: entry payload + enclosing pointer
    "cam-row",       # CAM: value/mask match lines + SRAM entry record
    "trie-node",     # multibit trie: child-pointer page of one node
    "trie-slot",     # multibit trie: one expanded (chunk, entry) slot
    "bloom-filter",  # Bloom bank: one length class's counter vector
    "bloom-bucket",  # Bloom bank: one off-filter hash-table bucket
)


@dataclass(frozen=True)
class MemoryFault:
    """One applied table-state upset, for post-mortem and pinning."""

    site: str
    index: int
    bit: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"site": self.site, "index": self.index, "bit": self.bit,
                "detail": self.detail}


class MemoryFaultInjector:
    """Seeded bit flips in the resident state of one routing table.

    One injector targets a subset of :data:`MEMORY_SITES` (default:
    whatever sites the table reports). Each strike picks, from the
    target site's private stream, a record index then a bit inside that
    record's image, and applies it through ``corrupt_memory``. Sites the
    table does not have — or sites whose record count is zero — absorb
    no strikes (the flip lands in unused silicon: trivially masked).
    """

    def __init__(self, seed: int = 0,
                 sites: Optional[Sequence[str]] = None):
        chosen = tuple(sites) if sites is not None else MEMORY_SITES
        unknown = sorted(set(chosen) - set(MEMORY_SITES))
        if unknown:
            raise FaultInjectionError(
                f"unknown memory sites {unknown}; "
                f"valid sites are {sorted(MEMORY_SITES)}")
        self.seed = seed
        #: canonical order regardless of how the caller listed them
        self.sites = tuple(s for s in MEMORY_SITES if s in chosen)
        self.faults_injected = 0
        self.faults_by_site: Dict[str, int] = {s: 0 for s in self.sites}
        self.faults: List[MemoryFault] = []
        self._rngs = {site: make_rng(derive_seed(seed, site))
                      for site in self.sites}

    def inject(self, table, flips: int = 1) -> List[MemoryFault]:
        """Apply *flips* strikes to *table*; returns the applied faults.

        Strikes rotate over the injector's eligible sites in canonical
        order (one strike per site per round), so a multi-flip trial
        spreads damage the way independent particles would.
        """
        if flips < 0:
            raise FaultInjectionError(
                f"flips must be non-negative, got {flips}")
        eligible = [site for site in self.sites
                    if site in table.memory_sites()]
        applied: List[MemoryFault] = []
        if not eligible:
            return applied
        for strike in range(flips):
            site = eligible[strike % len(eligible)]
            rng = self._rngs[site]
            records = table.memory_records(site)
            if not records:
                continue  # empty site: the particle hit unused silicon
            index = rng.randrange(len(records))
            bit = rng.randrange(len(records[index]) * 8)
            detail = table.corrupt_memory(site, index, bit)
            fault = MemoryFault(site=site, index=index, bit=bit,
                                detail=detail)
            applied.append(fault)
            self.faults_injected += 1
            self.faults_by_site[site] += 1
            if len(self.faults) < MAX_FAULT_RECORDS:
                self.faults.append(fault)
        return applied

    def stats(self) -> Dict[str, object]:
        """JSON-ready statistics (embedded in sweep trial records)."""
        return {
            "faults_injected": self.faults_injected,
            "faults_by_site": {site: count for site, count
                               in sorted(self.faults_by_site.items())
                               if count},
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def __repr__(self) -> str:
        return (f"<MemoryFaultInjector seed={self.seed} "
                f"sites={'/'.join(self.sites)} "
                f"injected={self.faults_injected}>")
