"""Rendering for soft-error (SDC sweep) results.

One fixed-width vulnerability table per sweep: a row per architecture
configuration (datapath sweep) or per (table kind, protection) cell
(memory sweep) with its outcome histogram and derived vulnerability
metrics. Both tables share their outcome columns and the outcome-totals
clause of their footer. Rendered purely from journal records, so a
resumed or parallel sweep prints byte-identically to a sequential one.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.reporting.tables import render_rows

#: the columns both tables carry after their two identifying ones
_OUTCOME_HEADERS = ["Trials", "Masked", "Detected", "SDC", "Crash", "Hang",
                    "SDC%", "Coverage%"]


def _pct(value) -> str:
    return "NA" if value is None else f"{value * 100:.1f}"


def _mean(value) -> str:
    return "NA" if value is None else f"{value:.1f}"


def _outcome_cells(row) -> List[object]:
    """A row's cells under :data:`_OUTCOME_HEADERS`."""
    outcomes = row["outcomes"]
    return [row["trials"] + row["failed"],
            outcomes["masked"], outcomes["detected"], outcomes["sdc"],
            outcomes["crash"], outcomes["hang"],
            _pct(row["sdc_rate"]), _pct(row["detection_coverage"])]


def _totals(result) -> Tuple[int, str]:
    """The trial count of a sweep and its per-outcome totals clause."""
    totals = result.outcome_totals
    return sum(totals.values()), ", ".join(
        f"{outcome} {count}" for outcome, count in sorted(totals.items()))


def render_vulnerability_table(result) -> str:
    """Text artifact for one :class:`~repro.dse.sdc.SdcSweepResult`."""
    rows = [[row["table"], row["config"], *_outcome_cells(row),
             _mean(row["mean_faults_to_failure"])] for row in result.rows]
    table = render_rows(
        ["Table", "Configuration", *_OUTCOME_HEADERS, "MFTF"], rows)
    trials, clause = _totals(result)
    footer = (f"{trials} trials over {len(result.rows)} configurations, "
              f"sites {'/'.join(result.sites)}, "
              f"rate {result.rate:g}, seed {result.seed}: {clause}")
    return table + "\n" + footer


def render_memory_vulnerability_table(result) -> str:
    """Text artifact for one :class:`~repro.dse.sdc.MemorySweepResult`.

    One row per (table kind, protection mode) cell: outcome histogram,
    the derived SDC rate and detection coverage, and the Table-1-style
    cost of carrying the protection words (extra table bytes, area and
    power deltas).
    """
    rows: List[List[object]] = []
    for row in result.rows:
        cost = row["protection_cost"] or {}
        rows.append([
            row["kind"], row["protection"], *_outcome_cells(row),
            cost.get("overhead_bytes", 0),
            f"{cost.get('area_delta_mm2', 0.0):+.3f}",
            f"{cost.get('power_delta_w', 0.0):+.3f}",
        ])
    table = render_rows(
        ["Table", "Protection", *_OUTCOME_HEADERS, "OverheadB",
         "dArea_mm2", "dPower_W"], rows)
    trials, clause = _totals(result)
    footer = (f"{trials} state-flip trials over {len(result.rows)} "
              f"(kind, protection) cells, "
              f"{result.prefix_count} prefixes, {result.lookups} lookups, "
              f"flips {result.flips}, seed {result.seed}: {clause}")
    return table + "\n" + footer
