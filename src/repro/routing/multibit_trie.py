"""Compressed multibit-trie routing table (stride-based, leaf-pushed).

The modern large-FIB structure the CRAM-lens literature builds on:
instead of inspecting one address bit per memory access (a unibit trie
needs up to 128 accesses for IPv6), the trie consumes :data:`STRIDE`
(8) bits per level, so a lookup is bounded by :data:`DEPTH` (16) memory
accesses regardless of table size — the property that lets it scale to
millions of prefixes at a fixed hardware pipeline depth.

Design
------
Each node spans :data:`STRIDE` address bits. Prefixes whose length falls
inside a node's span are *expanded* (controlled prefix expansion — the
within-node form of leaf pushing): a prefix covering ``t`` of the
node's ``w`` bits is written into the ``2^(w-t)`` chunk slots it
covers, longest prefix winning each slot. A lookup therefore performs
exactly one indexed read per level and keeps the deepest slot hit seen,
which is the longest match:

* within a node, slots are filled longest-prefix-first, and
* a prefix terminating at depth ``d`` is strictly longer than any
  terminating at a shallower depth, so deeper hits always win.

Children are stored sparsely (a dict keyed by chunk value), which is
the "compressed" part: dense 2^8 child arrays would be
prohibitive for the sparse upper levels of real FIBs.

Updates re-expand only the one node a prefix terminates in, from that
node's exact terminal set — removal therefore restores exactly the
state repeated inserts would have built (verified by
:meth:`check_invariants`).
"""

from __future__ import annotations

from struct import pack
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.routing.base import DEFAULT_CAPACITY, RoutingTable
from repro.routing.entry import RouteEntry
from repro.routing.memimage import corrupt_entry, pack_entry

ADDRESS_BITS = 128

STRIDE = 8
"""Address bits per level. An 8-bit chunk fits the 2-byte chunk keys and
slot tags of the memory image (``memory_records``), and 8 divides 128,
so every level is exactly this wide."""

DEPTH = ADDRESS_BITS // STRIDE
"""Levels of the trie: 16 memory accesses bound an IPv6 lookup."""

_CHUNK_MASK = (1 << STRIDE) - 1

#: per-depth shift bringing that level's chunk to the low bits
_SHIFTS: Tuple[int, ...] = tuple(
    ADDRESS_BITS - (depth + 1) * STRIDE for depth in range(DEPTH))


class _TrieNode:
    __slots__ = ("children", "slots", "terminals")

    def __init__(self) -> None:
        #: chunk value -> child node (sparse)
        self.children: Dict[int, "_TrieNode"] = {}
        #: expanded chunk value -> best prefix terminating in this node
        self.slots: Dict[int, RouteEntry] = {}
        #: exact prefixes terminating in this node (expansion source)
        self.terminals: Dict[Ipv6Prefix, RouteEntry] = {}

    def is_empty(self) -> bool:
        return not self.children and not self.terminals


class MultibitTrieRoutingTable(RoutingTable):
    """8-bit-stride trie with controlled prefix expansion per node."""

    kind = "multibit-trie"
    hardware_search = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        self._root = _TrieNode()
        self._node_count = 1
        #: exact-prefix ground truth, insertion-ordered (O(1) get/len)
        self._routes: Dict[Ipv6Prefix, RouteEntry] = {}

    # -- bit plumbing ----------------------------------------------------------

    @staticmethod
    def _terminal_depth(length: int) -> int:
        """Depth of the node a prefix of *length* terminates in."""
        return (length - 1) // STRIDE if length else 0

    # -- expansion -------------------------------------------------------------

    @staticmethod
    def _expansion(prefix: Ipv6Prefix, depth: int) -> Tuple[int, int]:
        """(first chunk, slot count) *prefix* covers in its node."""
        in_node = prefix.length - depth * STRIDE  # 0 for ::/0
        base = (prefix.network.value >> _SHIFTS[depth]) & _CHUNK_MASK
        span = 1 << (STRIDE - in_node)
        return base, span

    def _reexpand(self, node: _TrieNode, depth: int) -> int:
        """Rebuild *node*'s slot table from its terminals; returns the
        number of slot writes (fills shortest-first so longer prefixes
        overwrite — the leaf-pushed priority)."""
        node.slots = {}
        writes = 0
        ordered = sorted(node.terminals.items(),
                         key=lambda item: item[0].length)
        for prefix, entry in ordered:
            base, span = self._expansion(prefix, depth)
            for chunk in range(base, base + span):
                node.slots[chunk] = entry
            writes += span
        return writes

    # -- core operations -------------------------------------------------------

    def _insert(self, entry: RouteEntry) -> int:
        prefix = entry.prefix
        target_depth = self._terminal_depth(prefix.length)
        value = prefix.network.value
        node = self._root
        steps = 1
        for shift in _SHIFTS[:target_depth]:
            chunk = (value >> shift) & _CHUNK_MASK
            child = node.children.get(chunk)
            if child is None:
                child = node.children[chunk] = _TrieNode()
                self._node_count += 1
            node = child
            steps += 1
        node.terminals[prefix] = entry
        self._routes[prefix] = entry
        return steps + self._reexpand(node, target_depth)

    def _remove(self, prefix: Ipv6Prefix) -> int:
        if prefix not in self._routes:
            raise RoutingTableError(f"no such route: {prefix}")
        target_depth = self._terminal_depth(prefix.length)
        value = prefix.network.value
        path: List[Tuple[_TrieNode, int]] = []  # (parent, chunk taken)
        node = self._root
        steps = 1
        for shift in _SHIFTS[:target_depth]:
            chunk = (value >> shift) & _CHUNK_MASK
            path.append((node, chunk))
            node = node.children[chunk]
            steps += 1
        del node.terminals[prefix]
        del self._routes[prefix]
        steps += self._reexpand(node, target_depth)
        # Prune now-empty nodes bottom-up (the compression invariant:
        # no empty interior nodes survive a removal).
        while path and node.is_empty():
            parent, chunk = path.pop()
            del parent.children[chunk]
            self._node_count -= 1
            node = parent
        return steps

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        value = address.value
        node = self._root
        best: Optional[RouteEntry] = None
        steps = 0
        mask = _CHUNK_MASK
        for shift in _SHIFTS:
            steps += 1  # one memory access per level
            chunk = (value >> shift) & mask
            slot = node.slots.get(chunk)
            if slot is not None:
                best = slot
            node = node.children.get(chunk)
            if node is None:
                return best, steps
        # Descent depth is bounded by the pipeline: a node below the
        # last level means a corrupted child page steered the walk off
        # the tree — fail stop.
        raise RoutingTableError(
            "multibit-trie descent exceeds the pipeline depth "
            "(corrupted child page)")

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        return self._routes.get(prefix)

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter(list(self._routes.values()))

    # -- bulk load -------------------------------------------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        """Bulk build: place all terminals first, then expand every
        dirty node exactly once (the per-insert path re-expands a node
        for each of its prefixes). Empty-table fast path only."""
        if self._routes:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: Dict[Ipv6Prefix, RouteEntry] = {}
        for entry in entries:
            merged[entry.prefix] = entry
        dirty: Dict[int, Tuple[_TrieNode, int]] = {}
        steps = 0
        mask = _CHUNK_MASK
        for prefix, entry in merged.items():
            target_depth = self._terminal_depth(prefix.length)
            value = prefix.network.value
            node = self._root
            steps += 1
            for shift in _SHIFTS[:target_depth]:
                chunk = (value >> shift) & mask
                child = node.children.get(chunk)
                if child is None:
                    child = node.children[chunk] = _TrieNode()
                    self._node_count += 1
                node = child
                steps += 1
            node.terminals[prefix] = entry
            self._routes[prefix] = entry
            dirty[id(node)] = (node, target_depth)
        for node, depth in dirty.values():
            steps += self._reexpand(node, depth)
        self._account_bulk_load(len(entries), steps)

    # -- hardware search model -------------------------------------------------

    def search_latency_cycles(self) -> int:
        """Static pipeline depth: one on-chip SRAM access per level,
        provisioned for the worst-case (full-depth) descent."""
        return DEPTH

    # -- introspection ---------------------------------------------------------

    def slot_count(self) -> int:
        """Total expanded slots — the memory footprint driver."""
        return sum(len(node.slots) for node in self._dfs_nodes())

    def table_memory_bytes(self) -> int:
        """On-chip SRAM footprint: a 16-byte header per node plus a
        4-byte word per occupied slot and child pointer (the sparse
        pages the "compressed" layout stores)."""
        return sum(16 + 4 * (len(node.slots) + len(node.children))
                   for node in self._dfs_nodes())

    # -- memory-state corruption seam ------------------------------------------
    #
    # Two sites, both enumerated in pre-order DFS with sorted chunk keys
    # (deterministic across processes):
    #
    # * ``trie-node`` — one record per node *with children*: its sparse
    #   child-pointer page, packed as the sorted 2-byte chunk keys.
    #   Flipping a key bit re-files the child under the wrong chunk —
    #   mis-steering descents, possibly overwriting a sibling pointer
    #   (silent subtree loss), possibly parking the subtree at an
    #   unreachable chunk.
    # * ``trie-slot`` — one record per expanded slot: the 2-byte chunk
    #   tag plus the 38-byte leaf-pushed entry. Flipping a tag bit
    #   re-keys the slot; flipping an entry bit corrupts the stored
    #   route in place.

    def memory_sites(self) -> Tuple[str, ...]:
        return ("trie-node", "trie-slot")

    def _dfs_nodes(self) -> List[_TrieNode]:
        """Every node in pre-order, children by ascending chunk."""
        nodes = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            children = node.children
            if children:
                # largest chunk pushed first, so the smallest pops next
                stack += [children[chunk]
                          for chunk in sorted(children, reverse=True)]
        return nodes

    def _pointer_pages(self) -> List[Tuple[_TrieNode, List[int]]]:
        """Every node with children in pre-order, each with its chunk
        keys sorted once: the ``trie-node`` records, in order."""
        pages = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            children = node.children
            if children:
                keys = sorted(children)
                pages.append((node, keys))
                # largest chunk pushed first, so the smallest pops next
                stack += [children[chunk] for chunk in reversed(keys)]
        return pages

    def _slot_records(self) -> List[Tuple[_TrieNode, int]]:
        return [(node, chunk) for node in self._dfs_nodes()
                for chunk in sorted(node.slots)]

    def memory_records(self, site: str) -> List[bytes]:
        if site == "trie-node":
            return [pack(f">{len(keys)}H", *keys)
                    for _, keys in self._pointer_pages()]
        if site == "trie-slot":
            records: List[bytes] = []
            for node in self._dfs_nodes():
                slots = node.slots
                if slots:
                    records += [chunk.to_bytes(2, "big")
                                + pack_entry(slots[chunk])
                                for chunk in sorted(slots)]
            return records
        return super().memory_records(site)

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site == "trie-node":
            pages = self._pointer_pages()
            self._check_memory_index(site, index, len(pages))
            node, keys = pages[index]
            old_chunk = keys[bit // 16]
            new_chunk = old_chunk ^ (1 << (15 - bit % 16))
            child = node.children.pop(old_chunk)
            lost = new_chunk in node.children
            node.children[new_chunk] = child
            return (f"trie-node[{index}] child {old_chunk}->{new_chunk}"
                    + (" overwriting sibling" if lost else ""))
        if site == "trie-slot":
            records = self._slot_records()
            self._check_memory_index(site, index, len(records))
            node, chunk = records[index]
            if bit < 16:
                new_chunk = chunk ^ (1 << (15 - bit))
                entry = node.slots.pop(chunk)
                lost = new_chunk in node.slots
                node.slots[new_chunk] = entry
                return (f"trie-slot[{index}] tag {chunk}->{new_chunk}"
                        + (" overwriting slot" if lost else ""))
            node.slots[chunk] = corrupt_entry(node.slots[chunk], bit - 16)
            return f"trie-slot[{index}] entry bit {bit - 16} (chunk {chunk})"
        return super().corrupt_memory(site, index, bit)

    def check_invariants(self) -> None:
        """Raise if the trie's structural invariants are violated:
        terminal placement, slot-expansion consistency, compression
        (no empty interior nodes), and node accounting."""
        seen: Dict[Ipv6Prefix, RouteEntry] = {}
        count = 0

        def visit(node: _TrieNode, depth: int) -> None:
            nonlocal count
            count += 1
            if node is not self._root and node.is_empty():
                raise RoutingTableError(
                    f"empty interior node at depth {depth}")
            for prefix, entry in node.terminals.items():
                if self._terminal_depth(prefix.length) != depth:
                    raise RoutingTableError(
                        f"{prefix} terminates at the wrong depth {depth}")
                if prefix in seen:
                    raise RoutingTableError(f"duplicate terminal {prefix}")
                seen[prefix] = entry
            expected: Dict[int, RouteEntry] = {}
            for prefix, entry in sorted(node.terminals.items(),
                                        key=lambda item: item[0].length):
                base, span = self._expansion(prefix, depth)
                for chunk in range(base, base + span):
                    expected[chunk] = entry
            if expected != node.slots:
                raise RoutingTableError(
                    f"stale slot expansion at depth {depth}")
            for chunk, child in node.children.items():
                if not 0 <= chunk <= _CHUNK_MASK:
                    raise RoutingTableError(
                        f"chunk {chunk} out of range at depth {depth}")
                visit(child, depth + 1)

        visit(self._root, 0)
        if seen != self._routes:
            raise RoutingTableError("terminal set diverged from route set")
        if count != self._node_count:
            raise RoutingTableError(
                f"node count {self._node_count} != reachable {count}")
