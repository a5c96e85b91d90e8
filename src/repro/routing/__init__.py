"""Routing tables with identical LPM semantics and distinct cost models.

Three implementations match the paper's §4 evaluation:

* :class:`SequentialRoutingTable` — linear scan over cache memory (O(n));
* :class:`BalancedTreeRoutingTable` — AVL tree (O(log n) search, complex
  updates);
* :class:`CamRoutingTable` — ternary CAM + SRAM (O(1) search, 40 ns).

Two more scale past the paper's 100-entry design point to
million-prefix FIBs (see the CRAM-lens blueprint in PAPERS.md):

* :class:`MultibitTrieRoutingTable` — leaf-pushed trie of 8-bit levels
  (at most 16 accesses regardless of size);
* :class:`BloomRoutingTable` — hash table per prefix length behind a
  parallel Bloom-filter bank (~1 expected memory access per lookup).
"""

from repro._lazy import lazy_exports
from repro.routing import base

#: the table implementations, each exporting its class first
_KINDS = {
    ".sequential": ("SequentialRoutingTable",),
    ".balanced_tree": ("BalancedTreeRoutingTable",),
    ".cam": ("CamRoutingTable", "CamPhysicalModel", "CAM_SEARCH_TIME_NS"),
    ".multibit_trie": ("MultibitTrieRoutingTable",),
    ".bloom": ("BloomRoutingTable",),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    **_KINDS,
    ".base": ("RoutingTable", "TableStatistics", "DEFAULT_CAPACITY"),
    ".entry": ("LookupResult", "RouteEntry"),
    ".memimage": ("ENTRY_BITS", "ENTRY_BYTES", "corrupt_entry", "pack_entry",
                  "unpack_entry_raw"),
    ".protected": ("PROTECTION_MODES", "CorruptionEvent",
                   "ProtectedRoutingTable"),
})
__all__ += ["TABLE_KINDS", "make_table"]

#: every table class by its ``kind`` string
TABLE_KINDS = {cls.kind: cls for cls in (
    __getattr__(names[0]) for names in _KINDS.values())}


def make_table(kind: str,
               capacity: int = base.DEFAULT_CAPACITY) -> base.RoutingTable:
    """Factory over the implementations by their ``kind`` string; every
    table is built from its capacity alone."""
    try:
        cls = TABLE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown routing table kind {kind!r}; "
            f"choose from {sorted(TABLE_KINDS)}") from None
    return cls(capacity=capacity)
