"""Per-structure lookup cost models for the scaling Table-1 sweep.

The cycle-accurate TTA simulation that backs Table 1 is exact but
cannot execute against a million-prefix FIB in reasonable time (the
sequential program alone would issue ~10⁹ compare steps per datagram).
The lookup sweep therefore *measures* the pure-Python structures (mean
lookup steps over a synthesized FIB under Zipf traffic, plus the built
structure's memory footprint) and converts those measurements to
clock/area/power through the analytic models here.

Calibration
-----------
``cycles_per_packet = overhead + cycles_per_step × steps /
search_fu_sets`` for the software-searched structures, anchored at the
paper's 6 GHz point: the 1-bus sequential configuration at 100 entries
averages ~100 steps/lookup and 10 Gbps at 290 B/datagram is 4.31 Mpps,
so 6 GHz ⇒ ~1392 cycles/datagram ⇒ ~11.9 cycles per scanned entry on
top of a 200-cycle datagram-processing overhead. The hardware-searched
structures (CAM, trie, Bloom) spend their fixed search latency instead
of per-step cycles — the CAM's in wall-clock nanoseconds (resolved
against the clock by the evaluator's fixed point,
:func:`~repro.estimation.frequency.cam_search_latency`), the
trie/Bloom's in pipeline cycles.

Area scales with the measured structure footprint via
``estimate_area(..., table_kbyte=...)``; CAM power scales with the
number of external chips the FIB occupies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Dict

from repro.dse.config import ArchitectureConfiguration
from repro.errors import EstimationError
from repro.estimation import technology as tech
from repro.estimation.area import AreaBreakdown, estimate_area
from repro.estimation.frequency import cam_search_latency, \
    required_clock_hz
from repro.estimation.power import PowerBreakdown, estimate_power
from repro.routing.cam import CAM_WIDTH_BITS, CamPhysicalModel

#: datagram-processing cycles outside the table search (parse, validate,
#: hop limit, checksum, header rewrite, emit), per the calibration above
LOOKUP_OVERHEAD_CYCLES = 200.0

#: external CAM capacity per chip (the paper's example part is a 1 Mb
#: Micron Harmony); FIBs larger than one chip multiply its power draw
CAM_CHIP_BITS = 1 << 20


@dataclass(frozen=True)
class LookupCostParameters:
    """How a structure's measured steps become cycles per datagram."""

    #: cycles per examined element (software-searched structures)
    cycles_per_step: float
    #: the per-step work parallelizes over the FU search sets
    parallelizable: bool = True


LOOKUP_COST_MODELS: Dict[str, LookupCostParameters] = {
    # ~11.9 cycles per scanned entry: the 6 GHz Table-1 anchor.
    "sequential": LookupCostParameters(cycles_per_step=11.9),
    # a tree step adds a pointer chase to the compare: slightly dearer
    "balanced-tree": LookupCostParameters(cycles_per_step=14.0),
    # the CAM+SRAM search is a wall-clock constant (CamPhysicalModel)
    "cam": LookupCostParameters(cycles_per_step=0.0, parallelizable=False),
    # one pipelined on-chip SRAM access per trie level
    "multibit-trie": LookupCostParameters(cycles_per_step=1.0,
                                          parallelizable=False),
    # filter-bank probe + each off-filter hash-table read
    "bloom": LookupCostParameters(cycles_per_step=1.0, parallelizable=False),
}


@dataclass(frozen=True)
class LookupEstimate:
    """One (kind, prefix_count) sweep cell: measurement + derived costs."""

    kind: str
    prefix_count: int
    mean_lookup_steps: float
    cycles_per_packet: float
    required_clock_hz: float
    feasible: bool
    table_memory_bytes: int
    area: AreaBreakdown
    power: PowerBreakdown

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "prefix_count": self.prefix_count,
            "mean_lookup_steps": self.mean_lookup_steps,
            "cycles_per_packet": self.cycles_per_packet,
            "required_clock_hz": self.required_clock_hz,
            "feasible": self.feasible,
            "table_memory_bytes": self.table_memory_bytes,
            "area_mm2": self.area.as_dict(),
            "power_w": {
                "processor": self.power.processor_w,
                "external_cam": self.power.external_cam_w,
                "system": self.power.system_w,
            },
        }


#: protection-word width per protected record, by mode (the hardware
#: cost of turning silent corruption into detected events)
PROTECTION_WORD_BITS: Dict[str, int] = {
    "none": 0,
    "parity": 1,
    "checksum": 32,
}


def estimate_protection_overhead(kind: str, protection: str,
                                 prefix_count: int,
                                 mean_lookup_steps: float,
                                 table_memory_bytes: int,
                                 protected_records: int) -> dict:
    """Area/power cost of carrying parity/checksum words in the table.

    Prices the protected structure exactly like the unprotected one
    but with ``protected_records × word_bits`` of extra table SRAM —
    the same Table-1-style derivation the lookup sweep uses, so the
    vulnerability sweep can report SDC rate and protection cost side
    by side.
    """
    try:
        word_bits = PROTECTION_WORD_BITS[protection]
    except KeyError:
        raise EstimationError(
            f"unknown protection mode {protection!r}; choose from "
            f"{sorted(PROTECTION_WORD_BITS)}") from None
    if protected_records < 0:
        raise EstimationError(
            f"protected records must be non-negative: {protected_records}")
    config = ArchitectureConfiguration(bus_count=1, table_kind=kind)
    base = estimate_lookup_point(
        config, prefix_count, mean_lookup_steps, table_memory_bytes)
    overhead_bytes = -(-protected_records * word_bits // 8)
    shielded = estimate_lookup_point(
        config, prefix_count, mean_lookup_steps,
        table_memory_bytes + overhead_bytes)
    return {
        "protection": protection,
        "word_bits": word_bits,
        "protected_records": protected_records,
        "overhead_bytes": overhead_bytes,
        "overhead_ratio": (overhead_bytes / table_memory_bytes
                           if table_memory_bytes else 0.0),
        "area_mm2": shielded.area.total_mm2,
        "area_delta_mm2": shielded.area.total_mm2 - base.area.total_mm2,
        "power_w": shielded.power.system_w,
        "power_delta_w": shielded.power.system_w - base.power.system_w,
    }


def estimate_lookup_point(config: ArchitectureConfiguration,
                          prefix_count: int,
                          mean_lookup_steps: float,
                          table_memory_bytes: int) -> LookupEstimate:
    """Derive clock/area/power for one measured sweep cell at the
    paper's 10 Gbps constraint, with the buses fully utilised."""
    if prefix_count < 1:
        raise EstimationError(f"prefix count must be positive: {prefix_count}")
    if mean_lookup_steps < 0:
        raise EstimationError(f"negative mean steps: {mean_lookup_steps}")
    try:
        params = LOOKUP_COST_MODELS[config.table_kind]
    except KeyError:
        raise EstimationError(
            f"no lookup cost model for table kind "
            f"{config.table_kind!r}") from None

    if config.table_kind == "cam":
        cycles = LOOKUP_OVERHEAD_CYCLES + cam_search_latency(
            lambda latency: LOOKUP_OVERHEAD_CYCLES + latency)
    else:
        steps = mean_lookup_steps
        if params.parallelizable:
            steps /= config.search_fu_sets
        cycles = LOOKUP_OVERHEAD_CYCLES + params.cycles_per_step * steps
    clock = required_clock_hz(cycles)

    feasible = clock <= tech.MAX_CLOCK_HZ
    # Physical estimates are only meaningful inside the library's clock
    # range; infeasible cells are reported at the capped clock.
    capped = min(clock, tech.MAX_CLOCK_HZ)
    area = estimate_area(config, capped,
                         table_kbyte=table_memory_bytes / 1024.0)
    power = estimate_power(config, capped, area=area)
    if config.table_kind == "cam":
        chips = max(1, math.ceil(
            prefix_count * CAM_WIDTH_BITS / CAM_CHIP_BITS))
        model = CamPhysicalModel()
        power = dc_replace(
            power, external_cam_w=chips * model.power_at(capped / 1e6))
    return LookupEstimate(
        kind=config.table_kind,
        prefix_count=prefix_count,
        mean_lookup_steps=mean_lookup_steps,
        cycles_per_packet=cycles,
        required_clock_hz=clock,
        feasible=feasible,
        table_memory_bytes=table_memory_bytes,
        area=area,
        power=power,
    )
