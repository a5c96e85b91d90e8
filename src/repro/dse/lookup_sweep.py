"""Scaling lookup sweep: every table kind against 10²–10⁶-prefix FIBs.

The paper's Table 1 fixes the FIB at 100 entries — realistic for 2003
edge equipment, three orders of magnitude short of a modern default-free
zone. This campaign extends the comparison along the prefix-count axis:
for every ``(kind, prefix_count)`` cell it

1. synthesizes a realistic FIB (:func:`repro.workload.fib.synthesize_fib`
   — BGP-shaped prefix-length histogram, aggregatable allocations),
2. bulk-loads it into the structure under test,
3. measures mean lookup steps under Zipf-skewed traffic
   (:func:`repro.workload.fib.zipf_addresses`) via ``lookup_batch``,
4. converts the measurement to required clock / area / power through the
   calibrated analytic models
   (:func:`repro.estimation.lookup.estimate_lookup_point`).

The full cycle-accurate TTA simulation backs the models' calibration at
feasible sizes (``table1 --prefixes``); it cannot execute a sequential
scan over 10⁶ entries per datagram, which is exactly the regime this
sweep is for.

The sweep runs on the shared :class:`~repro.dse.sweep.JournaledSweep`
engine, like every other sweep in :mod:`repro.dse`: cells journal to the
same fsync'd JSONL format, a killed sweep resumes without repeating a
measurement, ``--jobs N`` fans cells out over a process pool whose dead
workers are survived by re-probing their cells one at a time, and
sequential / parallel / resumed runs render, serialise and journal
byte-identically. Worker processes never touch the metrics registry; the
parent publishes each cell's routing counters at persist time from the
record itself, so the observability story is also identical across
execution modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.config import (
    ALL_TABLE_KINDS,
    ArchitectureConfiguration,
)
from repro.dse.sweep import (
    JOURNAL_VERSION,
    JournaledSweep,
    failed_record,
    write_atomic,
)
from repro.errors import CampaignError, ReproError
from repro.estimation.lookup import LookupEstimate, estimate_lookup_point
from repro.obs import get_registry
from repro.routing import make_table
from repro.workload.fib import synthesize_fib, zipf_addresses

#: default prefix-count axis: two to six decades
DEFAULT_PREFIX_COUNTS = (100, 1_000, 10_000, 100_000, 1_000_000)

#: Zipf-skewed probe addresses measured per cell
DEFAULT_LOOKUPS = 2_000

#: the sweep's architecture anchor: the paper's most parallel Table-1
#: configuration, giving the software-searched structures their best
#: case (three concurrent search strands)
SWEEP_BUS_COUNT = 3
SWEEP_FU_SETS = 3


@dataclass(frozen=True)
class LookupCell:
    """One scheduled ``(kind, prefix_count)`` measurement."""

    kind: str
    prefix_count: int
    lookups: int
    seed: int

    @property
    def key(self) -> str:
        """Canonical journal identity of this cell."""
        return json.dumps({
            "kind": self.kind,
            "prefix_count": self.prefix_count,
            "lookups": self.lookups,
            "seed": self.seed,
        }, sort_keys=True, separators=(",", ":"))

    def config(self) -> ArchitectureConfiguration:
        return ArchitectureConfiguration(
            bus_count=SWEEP_BUS_COUNT, matchers=SWEEP_FU_SETS,
            counters=SWEEP_FU_SETS, comparators=SWEEP_FU_SETS,
            table_kind=self.kind)


def plan_cells(kinds: Sequence[str], prefix_counts: Sequence[int],
               lookups: int, seed: int) -> List[LookupCell]:
    """Deterministic cell enumeration: kind-major, then prefix count.

    Every cell's workload derives from ``(seed, prefix_count)`` only, so
    all kinds at one size measure the *same* FIB and the same traffic —
    the comparison is apples to apples by construction, and adding a
    kind cannot re-roll any other cell.
    """
    for kind in kinds:
        if kind not in ALL_TABLE_KINDS:
            raise CampaignError(
                f"unknown table kind {kind!r}; "
                f"choose from {ALL_TABLE_KINDS}")
    for count in prefix_counts:
        if count < 1:
            raise CampaignError(f"prefix count must be >= 1, got {count}")
    if lookups < 1:
        raise CampaignError(f"lookups must be >= 1, got {lookups}")
    return [LookupCell(kind=kind, prefix_count=count,
                       lookups=lookups, seed=seed)
            for kind in kinds for count in sorted(prefix_counts)]


# -- measurement (runs in the parent or a pool worker) ------------------------------


def _identity(cell: LookupCell) -> Dict[str, object]:
    return {
        "v": JOURNAL_VERSION,
        "key": cell.key,
        "kind": cell.kind,
        "prefix_count": cell.prefix_count,
        "lookups": cell.lookups,
        "seed": cell.seed,
    }


def measure_cell(cell: LookupCell, context=None) -> Dict[str, object]:
    """One cell -> one journal record (never raises for ReproError).

    *context* is unused: every cell synthesizes its own FIB. The metrics
    registry is disabled for the duration: the parent publishes this
    record's counters at persist time, so sequential and parallel sweeps
    account identically (pool workers could not publish into the
    parent's registry anyway).
    """
    base = _identity(cell)
    registry = get_registry()
    was_enabled = registry.enabled
    registry.disable()
    try:
        routes = synthesize_fib(cell.prefix_count, seed=cell.seed)
        table = make_table(cell.kind, capacity=len(routes))
        table.load(routes)
        addresses = zipf_addresses(routes, cell.lookups,
                                   seed=cell.seed + 7919)
        results = table.lookup_batch(addresses)
        stats = table.stats
        base["status"] = "ok"
        base["route_count"] = len(routes)
        base["mean_lookup_steps"] = \
            stats.total_lookup_steps / cell.lookups
        base["hit_rate"] = sum(r is not None for r in results) \
            / cell.lookups
        base["table_memory_bytes"] = table.table_memory_bytes()
        base["update_steps"] = stats.total_update_steps
    except ReproError as exc:
        base["status"] = "failed"
        base["error"] = type(exc).__name__
        base["message"] = str(exc)
    finally:
        if was_enabled:
            registry.enable()
    return base


def estimate_from_record(record: Dict[str, object]) -> LookupEstimate:
    """Reconstruct a cell's physical estimate exactly from its record.

    The record stores the measurement *inputs*; clock, area and power
    are recomputed through the same pure estimation functions, so every
    float matches the live sweep bit for bit — the same idiom as
    :func:`repro.dse.campaign.result_from_record`.
    """
    cell = LookupCell(kind=record["kind"],
                      prefix_count=record["prefix_count"],
                      lookups=record["lookups"], seed=record["seed"])
    return estimate_lookup_point(
        cell.config(), record["prefix_count"],
        record["mean_lookup_steps"], record["table_memory_bytes"])


# -- results -----------------------------------------------------------------------


@dataclass
class LookupSweepResult:
    """Outcome of one (possibly resumed) scaling sweep."""

    records: List[Dict[str, object]]  # plan order, one per cell
    kinds: Tuple[str, ...]
    prefix_counts: Tuple[int, ...]
    lookups: int
    seed: int
    resumed: int = 0
    discarded_records: int = 0

    def estimates(self) -> List[Optional[LookupEstimate]]:
        """Aligned estimates for the records; ``None`` marks a failure."""
        return [estimate_from_record(r) if r["status"] == "ok" else None
                for r in self.records]

    def render(self) -> str:
        """Deterministic text artifact — byte-identical whether the
        sweep ran through, ran parallel, or was killed and resumed."""
        from repro.reporting.tables import render_rows
        rows: List[List[object]] = []
        for record in self.records:
            if record["status"] != "ok":
                rows.append([record["kind"],
                             f"{record['prefix_count']:,}", "FAILED",
                             record.get("error", "?"), "", "", "", ""])
                continue
            estimate = estimate_from_record(record)
            clock = estimate.required_clock_hz
            clock_text = f"{clock / 1e9:.2f} GHz" if clock >= 1e9 \
                else f"{clock / 1e6:.0f} MHz"
            if not estimate.feasible:
                clock_text += " (NA)"
            rows.append([
                record["kind"], f"{record['prefix_count']:,}", "ok",
                f"{record['mean_lookup_steps']:.1f}",
                f"{record['hit_rate'] * 100:.1f}",
                clock_text,
                f"{estimate.area.total_mm2:.1f}",
                f"{estimate.power.system_w:.2f}",
            ])
        table = render_rows(
            ["Table", "Prefixes", "Status", "Steps", "Hit%",
             "Req. clock", "Area mm2", "Power W"], rows)
        ok = sum(r["status"] == "ok" for r in self.records)
        feasible = sum(e is not None and e.feasible
                       for e in self.estimates())
        footer = (f"{ok} cell(s) measured, {feasible} feasible at the "
                  f"0.18 um library limit")
        return table + "\n" + footer

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view. Deliberately free of resume/journal
        bookkeeping: the saved document must be byte-identical whether
        the sweep ran through, ran parallel, or was killed and
        resumed."""
        cells: List[Dict[str, object]] = []
        for record, estimate in zip(self.records, self.estimates()):
            cell = dict(record)
            if estimate is not None:
                cell["estimate"] = estimate.to_dict()
            cells.append(cell)
        return {
            "kinds": list(self.kinds),
            "prefix_counts": list(self.prefix_counts),
            "lookups": self.lookups,
            "seed": self.seed,
            "cells": cells,
        }

    def write_output(self, path: str) -> None:
        write_atomic(path, self.render() + "\n")


# -- the runner --------------------------------------------------------------------


class LookupSweepRunner(JournaledSweep):
    """Journal-backed, optionally parallel scaling-sweep driver."""

    measure = staticmethod(measure_cell)
    resumed_metric = ("lookup_sweep_resumed_total",
                      "sweep cells replayed from a journal")
    # One cell per chunk by default: cells differ in cost by orders of
    # magnitude (10² vs 10⁶ prefixes), so fine-grained scheduling beats
    # amortisation here.
    default_chunk_size = 1

    def __init__(self,
                 kinds: Optional[Sequence[str]] = None,
                 prefix_counts: Optional[Sequence[int]] = None,
                 lookups: int = DEFAULT_LOOKUPS,
                 seed: int = 2026,
                 jobs: int = 1,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 chunk_size: Optional[int] = None):
        super().__init__(journal_path, resume, jobs=jobs,
                         chunk_size=chunk_size)
        self.kinds = tuple(kinds) if kinds is not None else ALL_TABLE_KINDS
        self.prefix_counts = tuple(sorted(prefix_counts)) \
            if prefix_counts is not None else DEFAULT_PREFIX_COUNTS
        self.lookups = lookups
        self.seed = seed

    def run(self) -> LookupSweepResult:
        """Measure every planned cell; never raises for a cell whose
        structure rejects the workload (recorded ``failed``)."""
        records = self._sweep(plan_cells(self.kinds, self.prefix_counts,
                                         self.lookups, self.seed))
        return LookupSweepResult(
            records=records, kinds=self.kinds,
            prefix_counts=self.prefix_counts, lookups=self.lookups,
            seed=self.seed, resumed=self.resumed,
            discarded_records=self.discarded_records)

    def _failed_record(self, cell: LookupCell, error: str,
                       message: str) -> Dict[str, object]:
        return failed_record(_identity(cell), error, message)

    def _publish(self, record: Dict[str, object]) -> None:
        """Routing/cell counters for one fresh record.

        Published in the parent only — the measurement itself runs with
        the registry disabled — so sequential and parallel sweeps
        account identically and a resumed cell is never double-counted.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "lookup_sweep_cells_total",
            "scaling-sweep cells by outcome", ("status",)
        ).inc(status=record["status"])
        if record["status"] != "ok":
            return
        kind = record["kind"]
        lookups = record["lookups"]
        hits = round(record["hit_rate"] * lookups)
        lookup_counter = registry.counter(
            "routing_lookups_total", "LPM lookups by table kind",
            ("kind", "outcome"))
        lookup_counter.inc(hits, kind=kind, outcome="hit")
        lookup_counter.inc(lookups - hits, kind=kind, outcome="miss")
        registry.counter(
            "routing_lookup_steps_total",
            "cumulative LPM search steps", ("kind",)
        ).inc(round(record["mean_lookup_steps"] * lookups), kind=kind)
        registry.counter(
            "routing_updates_total", "table mutations", ("kind", "op")
        ).inc(record["route_count"], kind=kind, op="insert")
        registry.counter(
            "routing_update_steps_total",
            "cumulative table update steps", ("kind",)
        ).inc(record["update_steps"], kind=kind)
