"""Balanced-tree routing table: logarithmic search, complex updates.

The paper's second implementation option ("we implemented a balanced tree
structure, that offers logarithmic complexity of searching time. However,
the insertion and deletion operations become much more complex", §4).

Design
------
An AVL tree keyed by ``(network_value, prefix_length)``. Longest-prefix
match uses the classic *floor + enclosing chain* technique:

1. Descend the tree for the floor of key ``(address, 129)`` — the greatest
   stored key not exceeding the address (129 sorts after every real prefix
   length, so equal-network prefixes all qualify). This is the logarithmic
   part.
2. The LPM answer, if it exists, is the first prefix containing the address
   in ``[floor, floor.enclosing, floor.enclosing.enclosing, ...]`` where
   *enclosing* links each prefix to its immediate enclosing prefix in the
   table.

   Why this is complete: if prefix P contains address A then
   ``P.network <= A``, so P's key is <= (A, 129); by floor's maximality
   ``P.key <= floor.key``, hence ``P.network <= floor.network <= A`` and P
   contains ``floor.network``. Two prefixes sharing an address are nested,
   and P cannot be nested *inside* floor's prefix (that would give P a key
   above floor's, contradicting maximality), so P encloses floor — i.e. P
   is on floor's enclosing chain. The chain is ordered most-specific-first,
   so the first hit is the longest match.

Maintaining the enclosing links is what makes insert/delete "much more
complex": besides AVL rebalancing, an insert must adopt every existing
prefix it now immediately encloses, and a delete must hand its children
back to its own encloser.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix, prefix_mask
from repro.routing.base import DEFAULT_CAPACITY, RoutingTable
from repro.routing.entry import RouteEntry
from repro.routing.memimage import (
    ENTRY_BITS,
    corrupt_entry,
    flip_bit,
    pack_entry,
    raw_prefix,
)

_ADDRESS_SENTINEL_LENGTH = 129


def _key(prefix: Ipv6Prefix) -> Tuple[int, int]:
    return (prefix.network.value, prefix.length)


class _Node:
    __slots__ = ("_entry", "key", "left", "right", "height", "enclosing")

    def __init__(self, entry: RouteEntry):
        self.entry = entry
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.height = 1
        #: immediate enclosing prefix in the table (None = top level)
        self.enclosing: Optional[Ipv6Prefix] = None

    @property
    def entry(self) -> RouteEntry:
        return self._entry

    @entry.setter
    def entry(self, entry: RouteEntry) -> None:
        # the search key is stored, not derived per descent step; every
        # payload write (insert, replace, delete swap, corruption) goes
        # through here, so the key always follows the entry
        self._entry = entry
        self.key = _key(entry.prefix)


def _height(node: Optional[_Node]) -> int:
    return node.height if node else 0


def _update_height(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update_height(node)
    _update_height(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update_height(node)
    _update_height(pivot)
    return pivot


def _rebalance(node: _Node) -> _Node:
    _update_height(node)
    factor = _balance_factor(node)
    if factor > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if factor < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class BalancedTreeRoutingTable(RoutingTable):
    """AVL-tree routing table with enclosing-prefix chains for LPM."""

    kind = "balanced-tree"

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        self._root: Optional[_Node] = None
        self._nodes: Dict[Ipv6Prefix, _Node] = {}

    # -- lookup ---------------------------------------------------------------

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        value = address.value
        target = (value, _ADDRESS_SENTINEL_LENGTH)
        floor: Optional[_Node] = None
        node = self._root
        steps = 0
        while node is not None:
            steps += 1
            if node.key <= target:
                floor = node
                node = node.right
            else:
                node = node.left
        # Walk the enclosing chain for the first prefix containing address.
        # Chain length is bounded by the node count: a longer walk means
        # a corrupted enclosing pointer closed a cycle — fail stop.
        candidate: Optional[Ipv6Prefix] = floor.entry.prefix if floor else None
        nodes = self._nodes
        chain_budget = len(nodes) + 1
        while candidate is not None:
            chain_budget -= 1
            if chain_budget < 0:
                raise RoutingTableError(
                    "balanced-tree enclosing chain does not terminate "
                    "(corrupted enclosing pointer)")
            steps += 1
            chain_node = nodes[candidate]
            # the key is the entry's (network, length): this is
            # ``entry.prefix.contains(address)``, range check included
            network, length = chain_node.key
            if value & prefix_mask(length) == network:
                return chain_node.entry, steps
            candidate = chain_node.enclosing
        return None, steps

    def lookup_reads(self, address: Ipv6Address
                     ) -> Tuple[Optional[RouteEntry], int, Tuple[_Node, ...]]:
        """The walk of :meth:`_lookup`, read by every node it examines:
        the descent to the floor, then the enclosing chain."""
        value = address.value
        target = (value, _ADDRESS_SENTINEL_LENGTH)
        floor: Optional[_Node] = None
        node = self._root
        descent: List[_Node] = []
        while node is not None:
            descent.append(node)
            if node.key <= target:
                floor = node
                node = node.right
            else:
                node = node.left
        candidate = floor.entry.prefix if floor else None
        nodes = self._nodes
        chain: List[_Node] = []
        answer: Optional[RouteEntry] = None
        while candidate is not None:
            if len(chain) > len(nodes):
                raise RoutingTableError(
                    "balanced-tree enclosing chain does not terminate "
                    "(corrupted enclosing pointer)")
            chain_node = nodes[candidate]
            chain.append(chain_node)
            network, length = chain_node.key
            if value & prefix_mask(length) == network:
                answer = chain_node.entry
                break
            candidate = chain_node.enclosing
        return answer, len(descent) + len(chain), tuple(descent + chain)

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        node = self._nodes.get(prefix)
        return node.entry if node else None

    # -- insert ---------------------------------------------------------------

    def _insert(self, entry: RouteEntry) -> int:
        prefix = entry.prefix
        existing = self._nodes.get(prefix)
        if existing is not None:
            # Replace cost = the actual descent to the node + one write
            # (previously reported the tree height, which over- or
            # under-counted depending on where the node sat).
            steps = self._descent_steps(_key(prefix))
            existing.entry = entry
            return steps + 1
        steps = _height(self._root)

        new_node = _Node(entry=entry)
        self._root = self._avl_insert(self._root, new_node)
        self._nodes[prefix] = new_node

        # Compute the new node's encloser, then adopt any node it now
        # immediately encloses (the "complex insertion" of the paper).
        new_node.enclosing = self._find_enclosing(prefix)
        adopted = 0
        for other in self._range_nodes(prefix):
            if other is new_node:
                continue
            # A node inside our range with a longer prefix is nested in us;
            # adopt it iff we are now its most specific encloser.
            if (other.entry.prefix.length > prefix.length
                    and other.enclosing == new_node.enclosing):
                other.enclosing = prefix
                adopted += 1
        return steps + adopted + 1

    def _descent_steps(self, key: Tuple[int, int]) -> int:
        """Nodes examined descending from the root to *key* (inclusive)."""
        node = self._root
        steps = 0
        while node is not None:
            steps += 1
            if key == node.key:
                break
            node = node.left if key < node.key else node.right
        return steps

    def _avl_insert(self, node: Optional[_Node], new_node: _Node) -> _Node:
        if node is None:
            return new_node
        if new_node.key < node.key:
            node.left = self._avl_insert(node.left, new_node)
        else:
            node.right = self._avl_insert(node.right, new_node)
        return _rebalance(node)

    def _find_enclosing(self, prefix: Ipv6Prefix) -> Optional[Ipv6Prefix]:
        """The most specific table prefix strictly containing *prefix*."""
        target = (prefix.network.value, prefix.length - 1) if prefix.length else (-1, -1)
        floor: Optional[_Node] = None
        node = self._root
        while node is not None:
            if node.key <= target:
                floor = node
                node = node.right
            else:
                node = node.left
        candidate = floor.entry.prefix if floor else None
        while candidate is not None:
            candidate_node = self._nodes[candidate]
            cp = candidate_node.entry.prefix
            if cp.length < prefix.length and cp.contains(prefix.network):
                return cp
            candidate = candidate_node.enclosing
        return None

    # -- bulk load -------------------------------------------------------------

    def load(self, entries: "list[RouteEntry]") -> None:
        """Bulk build: one sort, balanced construction, single-pass
        enclosing-chain computation.

        The per-insert path recomputes ``_find_enclosing`` plus a range
        scan for every entry; this builds a perfectly balanced tree from
        the sorted keys and derives every enclosing link in one stack
        sweep over key order (a prefix's encloser is the nearest
        still-open containing prefix). Only valid from an empty table;
        otherwise falls back to the per-insert path.
        """
        if self._root is not None:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: Dict[Ipv6Prefix, RouteEntry] = {}
        for entry in entries:
            merged[entry.prefix] = entry
        ordered = sorted(merged.values(), key=lambda entry: _key(entry.prefix))
        nodes = [_Node(entry=entry) for entry in ordered]
        self._root = self._build_balanced(nodes, 0, len(nodes))
        self._nodes = {node.entry.prefix: node for node in nodes}
        # Prefixes form a laminar family, so in (network, length) order
        # the immediate encloser is the nearest open ancestor on a stack.
        stack: List[_Node] = []
        for node in nodes:
            prefix = node.entry.prefix
            while stack:
                top = stack[-1].entry.prefix
                if top.length < prefix.length and top.contains(prefix.network):
                    break
                stack.pop()
            node.enclosing = stack[-1].entry.prefix if stack else None
            stack.append(node)
        self._account_bulk_load(len(entries), len(nodes))

    def _build_balanced(self, nodes: List[_Node],
                        lo: int, hi: int) -> Optional[_Node]:
        if lo >= hi:
            return None
        mid = (lo + hi) // 2
        node = nodes[mid]
        node.left = self._build_balanced(nodes, lo, mid)
        node.right = self._build_balanced(nodes, mid + 1, hi)
        _update_height(node)
        return node

    # -- delete ---------------------------------------------------------------

    def _remove(self, prefix: Ipv6Prefix) -> int:
        node = self._nodes.get(prefix)
        if node is None:
            raise RoutingTableError(f"no such route: {prefix}")
        steps = _height(self._root)
        heir = node.enclosing
        released = 0
        for other in self._range_nodes(prefix):
            if other.enclosing == prefix:
                other.enclosing = heir
                released += 1
        self._root = self._avl_delete(self._root, _key(prefix))
        del self._nodes[prefix]
        return steps + released + 1

    def _avl_delete(self, node: Optional[_Node], key: Tuple[int, int]) -> Optional[_Node]:
        if node is None:
            raise RoutingTableError(f"key not in tree: {key}")
        if key < node.key:
            node.left = self._avl_delete(node.left, key)
        elif key > node.key:
            node.right = self._avl_delete(node.right, key)
        else:
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            # Swap payloads so the dict keeps pointing at live nodes, then
            # remove the successor position from the right subtree.
            node.entry, successor.entry = successor.entry, node.entry
            node.enclosing, successor.enclosing = successor.enclosing, node.enclosing
            self._nodes[node.entry.prefix] = node
            self._nodes[successor.entry.prefix] = successor
            node.right = self._avl_delete(node.right, successor.key)
        return _rebalance(node)

    # -- iteration helpers ------------------------------------------------------

    def _range_nodes(self, prefix: Ipv6Prefix) -> List[_Node]:
        """All nodes whose network lies inside *prefix* (inclusive scan)."""
        low = prefix.network.value
        high = low | (~prefix.mask() & ((1 << 128) - 1))
        out: List[_Node] = []

        def visit(node: Optional[_Node]) -> None:
            if node is None:
                return
            value = node.entry.prefix.network.value
            if value >= low:
                visit(node.left)
            if low <= value <= high:
                out.append(node)
            if value <= high:
                visit(node.right)

        visit(self._root)
        return out

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter([node.entry for node in self._ordered_nodes()])

    # -- memory-state corruption seam -------------------------------------------
    #
    # One record per tree node, in-order (= key order, deterministic
    # across processes). The 56-byte image is the 38-byte entry payload
    # followed by the 18-byte enclosing pointer (present flag 1 +
    # network 16 + length 1). Corrupting the payload leaves the node
    # filed in ``_nodes`` under its *old* prefix — exactly the
    # key-desynchronization real SRAM corruption causes; corrupting the
    # pointer damages only the LPM chain.

    def memory_sites(self) -> Tuple[str, ...]:
        return ("tree-node",)

    def _ordered_nodes(self) -> List[_Node]:
        out: List[_Node] = []

        def visit(node: Optional[_Node]) -> None:
            if node is None:
                return
            visit(node.left)
            out.append(node)
            visit(node.right)

        visit(self._root)
        return out

    @staticmethod
    def _pack_enclosing(enclosing: Optional[Ipv6Prefix]) -> bytes:
        if enclosing is None:
            return bytes(18)
        return (b"\x01" + enclosing.network.value.to_bytes(16, "big")
                + bytes([enclosing.length & 0xFF]))

    def memory_records(self, site: str) -> List[bytes]:
        if site != "tree-node":
            return super().memory_records(site)
        return [pack_entry(node.entry) + self._pack_enclosing(node.enclosing)
                for node in self._ordered_nodes()]

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site != "tree-node":
            return super().corrupt_memory(site, index, bit)
        nodes = self._ordered_nodes()
        self._check_memory_index(site, index, len(nodes))
        node = nodes[index]
        before = node.entry.prefix
        if bit < ENTRY_BITS:
            node.entry = corrupt_entry(node.entry, bit)
            return f"tree-node[{index}] payload bit {bit} ({before})"
        pointer = flip_bit(self._pack_enclosing(node.enclosing),
                           bit - ENTRY_BITS)
        if pointer[0]:
            node.enclosing = raw_prefix(
                int.from_bytes(pointer[1:17], "big"), pointer[17])
        else:
            node.enclosing = None
        return f"tree-node[{index}] enclosing bit {bit - ENTRY_BITS} ({before})"

    def strike_reads(self, site: str, index: int, bit: int
                     ) -> Tuple[Tuple[_Node, ...], None]:
        """The struck node: a walk that examines no damaged node takes
        the same path to the same answer."""
        if site != "tree-node":
            return super().strike_reads(site, index, bit)
        return (self._ordered_nodes()[index],), None

    # -- introspection (tests assert the AVL invariant) --------------------------

    def tree_height(self) -> int:
        return _height(self._root)

    def table_memory_bytes(self) -> int:
        """On-chip node image: the 16-word RTU stride per node."""
        return len(self._nodes) * 64

    def check_invariants(self) -> None:
        """Raise if the AVL balance or ordering invariant is violated."""

        def visit(node: Optional[_Node]) -> Tuple[int, Optional[Tuple[int, int]],
                                                  Optional[Tuple[int, int]]]:
            if node is None:
                return 0, None, None
            left_h, left_min, left_max = visit(node.left)
            right_h, right_min, right_max = visit(node.right)
            if abs(left_h - right_h) > 1:
                raise RoutingTableError(
                    f"AVL balance violated at {node.entry.prefix}")
            if left_max is not None and left_max >= node.key:
                raise RoutingTableError(
                    f"BST order violated at {node.entry.prefix}")
            if right_min is not None and right_min <= node.key:
                raise RoutingTableError(
                    f"BST order violated at {node.entry.prefix}")
            height = 1 + max(left_h, right_h)
            if height != node.height:
                raise RoutingTableError(
                    f"stale height at {node.entry.prefix}")
            low = left_min if left_min is not None else node.key
            high = right_max if right_max is not None else node.key
            return height, low, high

        visit(self._root)
