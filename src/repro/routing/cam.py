"""Content-addressable memory (CAM) routing table model.

The paper's third option: "a 136-bit wide content addressable memory (CAM)
and a commercially available SRAM chip. By combining these two circuits we
calculated that the routing table searching time would be 40 ns" (§4). The
CAM matches the 128-bit destination (plus tag bits) against every stored
(value, mask) pair in parallel; the SRAM holds the associated next-hop
records, indexed by the matching CAM line.

We model a ternary CAM: each line stores value+mask, the priority encoder
returns the matching line with the *longest* prefix (lines are kept sorted
by descending prefix length, the standard TCAM discipline). The model also
carries the datasheet-style physical figures the paper quotes for the
Micron Harmony 1 Mb CAM (1.5–2 W average at 133 MHz) so the estimation
layer can include them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RoutingTableError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.obs.catalogue import ROUTING_CAM_BUSY_CYCLES
from repro.routing.base import DEFAULT_CAPACITY, FirstMatchIndex, \
    RoutingTable
from repro.routing.entry import LookupResult, RouteEntry
from repro.routing.memimage import corrupt_entry, pack_entry

CAM_WIDTH_BITS = 136
"""128 address bits + 8 tag bits, as in the paper."""

CAM_SEARCH_TIME_NS = 40.0
"""Combined CAM match + SRAM read latency the paper calculates."""


@dataclass(frozen=True)
class CamPhysicalModel:
    """Datasheet-style physical figures for the external CAM+SRAM pair.

    Defaults follow the paper's example part (Micron Harmony 1 Mb CAM,
    1.5–2 W average at 133 MHz). The CAM is an external chip: its power
    adds to the router's budget but its area is off-die ("the power and
    area required by the CAM chip are not included" in the paper's TACO
    estimates — reports keep the contributions separable for that reason).
    """

    search_time_ns: float = CAM_SEARCH_TIME_NS
    average_power_w: float = 1.75
    reference_clock_mhz: float = 133.0
    width_bits: int = CAM_WIDTH_BITS

    def power_at(self, clock_mhz: float) -> float:
        """Average power scaled linearly with search rate (CV²f model)."""
        if clock_mhz <= 0:
            raise RoutingTableError(f"clock must be positive: {clock_mhz}")
        scale = min(clock_mhz / self.reference_clock_mhz, 1.0)
        return self.average_power_w * scale

    def search_cycles(self, clock_hz: float) -> int:
        """Search latency in (whole) processor cycles at a given clock.

        This is why raising the TACO clock stops helping in the CAM rows
        of Table 1: the 40 ns search is a wall-clock constant.
        """
        if clock_hz <= 0:
            raise RoutingTableError(f"clock must be positive: {clock_hz}")
        cycles = self.search_time_ns * 1e-9 * clock_hz
        return max(1, int(-(-cycles // 1)))


#: CAM occupancy per search at the part's reference clock, which lookup
#: accounting publishes as busy cycles
_SEARCH_BUSY_CYCLES = CamPhysicalModel().search_cycles(
    CamPhysicalModel.reference_clock_mhz * 1e6)


@dataclass
class _CamLine:
    value: int
    mask: int
    entry: RouteEntry


class CamRoutingTable(RoutingTable):
    """TCAM-style table: single-step parallel match, priority by length."""

    kind = "cam"
    hardware_search = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__(capacity)
        self._lines: List[_CamLine] = []
        #: first-match index over the lines' match pairs; writes drop it
        self._index: Optional[FirstMatchIndex] = None

    def _insert(self, entry: RouteEntry) -> int:
        self._index = None
        prefix = entry.prefix
        for line in self._lines:
            if line.entry.prefix == prefix:
                line.entry = entry
                return 2  # one parallel match + one line write
        new_line = _CamLine(value=prefix.network.value, mask=prefix.mask(),
                            entry=entry)
        position = len(self._lines)
        for i, line in enumerate(self._lines):
            if line.entry.prefix.length < prefix.length:
                position = i
                break
        self._lines.insert(position, new_line)
        # A real TCAM must shuffle lines to keep priority order; count the
        # displaced lines as the update cost.
        return 1 + (len(self._lines) - position - 1)

    def _remove(self, prefix: Ipv6Prefix) -> int:
        for i, line in enumerate(self._lines):
            if line.entry.prefix == prefix:
                del self._lines[i]
                self._index = None
                return 1 + (len(self._lines) - i)
        raise RoutingTableError(f"no such route: {prefix}")

    def _lookup(self, address: Ipv6Address) -> Tuple[Optional[RouteEntry], int]:
        # Hardware matches all lines in parallel; the model's "steps" is 1
        # regardless of occupancy — the defining property of the CAM row.
        # The priority encoder's pick is the first matching line.
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        match = index.find(address.value)
        return (None if match is None else match[1]), 1

    def _build_index(self) -> FirstMatchIndex:
        return FirstMatchIndex(
            [(line.mask, line.value, line.entry) for line in self._lines])

    def _account_lookups(
            self, pairs: "Sequence[Tuple[Optional[RouteEntry], int]]"
    ) -> List[Optional[LookupResult]]:
        """Every search also occupies the CAM for one 40 ns slot."""
        results = super()._account_lookups(pairs)
        if results:
            ROUTING_CAM_BUSY_CYCLES.inc(
                _SEARCH_BUSY_CYCLES * len(results))
        return results

    def load(self, entries: "list[RouteEntry]") -> None:
        """Single-sort bulk line build from an empty CAM (one write per
        line); falls back to the per-insert path otherwise."""
        if self._lines:
            super().load(entries)
            return
        self._check_bulk_capacity(entries)
        merged: "Dict[Ipv6Prefix, RouteEntry]" = {}
        for entry in entries:
            merged[entry.prefix] = entry
        ordered = sorted(
            merged.values(), key=lambda entry: -entry.prefix.length)
        self._lines = [
            _CamLine(value=entry.prefix.network.value,
                     mask=entry.prefix.mask(), entry=entry)
            for entry in ordered]
        self._index = None
        self._account_bulk_load(len(entries), len(merged))

    def search_latency_cycles(self) -> int:
        """Search latency in cycles at the part's reference clock (the
        evaluator's fixed point rederives it at the candidate clock)."""
        return _SEARCH_BUSY_CYCLES

    def get(self, prefix: Ipv6Prefix) -> Optional[RouteEntry]:
        for line in self._lines:
            if line.entry.prefix == prefix:
                return line.entry
        return None

    def __len__(self) -> int:
        return len(self._lines)

    def __iter__(self) -> Iterator[RouteEntry]:
        return iter([line.entry for line in self._lines])

    # -- memory-state corruption seam ------------------------------------------
    #
    # One record per CAM line, priority order. The 70-byte image is the
    # ternary match pair (value 16 + mask 16) followed by the 38-byte
    # SRAM entry record. Flipping a match bit silently re-steers the
    # priority encoder (classic TCAM upset); flipping an SRAM bit
    # corrupts the associated next-hop record.

    def memory_sites(self) -> Tuple[str, ...]:
        return ("cam-row",)

    def memory_records(self, site: str) -> List[bytes]:
        if site != "cam-row":
            return super().memory_records(site)
        return [line.value.to_bytes(16, "big")
                + line.mask.to_bytes(16, "big")
                + pack_entry(line.entry)
                for line in self._lines]

    def corrupt_memory(self, site: str, index: int, bit: int) -> str:
        if site != "cam-row":
            return super().corrupt_memory(site, index, bit)
        self._check_memory_index(site, index, len(self._lines))
        line = self._lines[index]
        prefix = line.entry.prefix
        self._index = None
        if bit < 128:
            line.value ^= 1 << (127 - bit)
            return f"cam-row[{index}] value bit {bit} ({prefix})"
        if bit < 256:
            line.mask ^= 1 << (255 - bit)
            return f"cam-row[{index}] mask bit {bit - 128} ({prefix})"
        line.entry = corrupt_entry(line.entry, bit - 256)
        return f"cam-row[{index}] sram bit {bit - 256} ({prefix})"

    def table_memory_bytes(self) -> int:
        """On-chip footprint is zero: the CAM+SRAM pair is an external
        chip (its power is accounted separately, its area excluded)."""
        return 0
