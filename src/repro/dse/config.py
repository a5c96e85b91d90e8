"""Architecture configurations: the points of the design space.

"Architecture instances are constructed by varying the number of modules of
the same type in the processor as well as varying the internal data
transport capacity [bus count] of the instances" (paper §2).

The paper's Table 1 uses three configurations per routing-table option;
:func:`paper_configurations` reproduces them verbatim, and
:func:`table1_configurations` lays them out as the Table-1 grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: the paper's three Table-1 options (the default sweep grid)
TABLE_KINDS = ("sequential", "balanced-tree", "cam")

#: post-paper structures that scale to million-prefix FIBs
EXTENDED_TABLE_KINDS = ("multibit-trie", "bloom")

#: every kind a configuration may carry
ALL_TABLE_KINDS = TABLE_KINDS + EXTENDED_TABLE_KINDS

#: kinds whose search is a hardware operation of the RTU itself (the
#: forwarding program triggers one search instead of walking memory)
HARDWARE_SEARCH_KINDS = ("cam", "multibit-trie", "bloom")

#: soft-error sweep defaults (:mod:`repro.dse.sdc`): trials per fault
#: site, the datapath flip rate, and each stored-FIB trial's lookups and
#: flips. They live here so that the facade's signatures carry them
#: without loading the sweep.
DEFAULT_TRIALS = 8
DEFAULT_RATE = 0.002
DEFAULT_MEMORY_LOOKUPS = 200
DEFAULT_MEMORY_FLIPS = 1


@dataclass(frozen=True)
class ArchitectureConfiguration:
    """One TACO architecture instance plus its routing-table option."""

    bus_count: int = 1
    matchers: int = 1
    counters: int = 1
    comparators: int = 1
    shifters: int = 1
    maskers: int = 1
    checksums: int = 1
    gpr_registers: int = 16
    table_kind: str = "sequential"
    #: CAM search latency in processor cycles (resolved against the clock
    #: by the evaluator's fixed-point iteration; 1 at low clocks)
    cam_search_latency: int = 1

    def __post_init__(self) -> None:
        counts = {
            "bus_count": self.bus_count, "matchers": self.matchers,
            "counters": self.counters, "comparators": self.comparators,
            "shifters": self.shifters, "maskers": self.maskers,
            "checksums": self.checksums, "gpr_registers": self.gpr_registers,
            "cam_search_latency": self.cam_search_latency,
        }
        for name, value in counts.items():
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.table_kind not in ALL_TABLE_KINDS:
            raise ConfigurationError(
                f"unknown table kind {self.table_kind!r}; "
                f"choose from {ALL_TABLE_KINDS}")

    @property
    def search_fu_sets(self) -> int:
        """How many parallel search strands the FU mix supports."""
        return min(self.matchers, self.counters, self.comparators)

    def fu_counts(self) -> Dict[str, int]:
        """FU-type inventory (for the physical estimation model)."""
        return {
            "matcher": self.matchers,
            "counter": self.counters,
            "comparator": self.comparators,
            "shifter": self.shifters,
            "masker": self.maskers,
            "checksum": self.checksums,
        }

    def with_cam_latency(self, cycles: int) -> "ArchitectureConfiguration":
        return replace(self, cam_search_latency=cycles)

    def label(self) -> str:
        """Table 1 row label, e.g. ``1BUS/1FU`` or ``3BUS/3CNT,3CMP,3M``."""
        sets = self.search_fu_sets
        if sets == 1 and self.matchers == self.counters == self.comparators == 1:
            return f"{self.bus_count}BUS/1FU"
        return (f"{self.bus_count}BUS/{self.counters}CNT,"
                f"{self.comparators}CMP,{self.matchers}M")

    def describe(self) -> str:
        return f"{self.label()} + {self.table_kind} routing table"


def paper_configurations(table_kind: str) -> Tuple[ArchitectureConfiguration, ...]:
    """The three per-table-option configurations evaluated in Table 1."""
    return (
        ArchitectureConfiguration(bus_count=1, table_kind=table_kind),
        ArchitectureConfiguration(bus_count=3, table_kind=table_kind),
        ArchitectureConfiguration(bus_count=3, matchers=3, counters=3,
                                  comparators=3, table_kind=table_kind),
    )


def table1_configurations(kinds: Sequence[str] = TABLE_KINDS
                          ) -> List[ArchitectureConfiguration]:
    """The Table-1 grid in sweep order: each of *kinds*' three paper
    configurations, kind by kind."""
    return [config for kind in kinds for config in paper_configurations(kind)]
