"""Regenerate the paper's Table 1.

Nine rows: {sequential, balanced tree, CAM} × {1BUS/1FU, 3BUS/1FU,
3BUS/3CNT,3CMP,3M}, each with the minimum clock to sustain 10 Gbps with a
100-entry routing table, the measured bus utilisation, and the estimated
area and average power (NA where the required clock exceeds the library).

:data:`PAPER_TABLE1` records the values readable from the published table
(clock anchors for all nine rows, 100 % utilisation for the single-bus
rows; the remaining utilisation/area/power cells did not survive the
text extraction of our source and are ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.config import TABLE_KINDS
from repro.dse.evaluator import EvaluationResult

ROW_LABELS = ("1BUS/1FU", "3BUS/1FU", "3BUS/3CNT,3CMP,3M")


@dataclass(frozen=True)
class PaperRow:
    """What the published Table 1 reports for one row."""

    table_kind: str
    config_label: str
    required_clock_hz: float
    bus_utilization: Optional[float] = None
    area_mm2: Optional[float] = None
    power_w: Optional[float] = None
    estimated: bool = True  # False = the paper printed NA


PAPER_TABLE1: Tuple[PaperRow, ...] = (
    PaperRow("sequential", "1BUS/1FU", 6.0e9, 1.00, estimated=False),
    PaperRow("sequential", "3BUS/1FU", 2.0e9, 1.00, estimated=False),
    PaperRow("sequential", "3BUS/3CNT,3CMP,3M", 1.0e9),
    PaperRow("balanced-tree", "1BUS/1FU", 1.2e9, 1.00, estimated=False),
    PaperRow("balanced-tree", "3BUS/1FU", 600e6),
    PaperRow("balanced-tree", "3BUS/3CNT,3CMP,3M", 250e6),
    PaperRow("cam", "1BUS/1FU", 118e6),
    PaperRow("cam", "3BUS/1FU", 40e6),
    PaperRow("cam", "3BUS/3CNT,3CMP,3M", 35e6),
)


@dataclass(frozen=True)
class Table1Row:
    """One measured row next to its paper counterpart.

    Rows for the post-paper table kinds (multibit-trie, Bloom) have no
    published counterpart: ``paper`` is ``None`` and the paper-relative
    fields degrade gracefully.
    """

    paper: Optional[PaperRow]
    measured: EvaluationResult

    @property
    def table_kind(self) -> str:
        return self.measured.config.table_kind

    @property
    def config_label(self) -> str:
        return self.measured.config.label()

    @property
    def clock_ratio_vs_paper(self) -> Optional[float]:
        if self.paper is None:
            return None
        return self.measured.required_clock_hz / self.paper.required_clock_hz

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict
        return {
            "paper": asdict(self.paper) if self.paper is not None else None,
            "measured": self.measured.to_dict(),
            "clock_ratio_vs_paper": self.clock_ratio_vs_paper,
        }


def table1_to_dict(rows: Sequence["Table1Row"],
                   violations: Optional[Sequence[str]] = None
                   ) -> Dict[str, object]:
    """JSON-ready document for a generated Table 1."""
    payload: Dict[str, object] = {
        "rows": [row.to_dict() for row in rows]}
    if violations is not None:
        payload["shape_violations"] = list(violations)
    return payload


def format_clock(clock_hz: float) -> str:
    if clock_hz >= 1e9:
        return f"{clock_hz / 1e9:.2f} GHz"
    return f"{clock_hz / 1e6:.0f} MHz"


def render_table1(rows: Sequence[Table1Row]) -> str:
    """A text rendering mirroring the paper's column layout."""
    header = (f"{'Routing table':<14} {'Configuration':<20} "
              f"{'Req. clock':>10} {'(paper)':>10} "
              f"{'Bus%':>5} {'Area mm2':>9} {'Power W':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        m = row.measured
        area = f"{m.area_mm2:9.1f}" if m.area_mm2 is not None else f"{'NA':>9}"
        power = f"{m.power_w:8.2f}" if m.power_w is not None else f"{'NA':>8}"
        paper_clock = (format_clock(row.paper.required_clock_hz)
                       if row.paper is not None else "—")
        lines.append(
            f"{row.table_kind:<14} {row.config_label:<20} "
            f"{format_clock(m.required_clock_hz):>10} "
            f"{paper_clock:>10} "
            f"{m.bus_utilization * 100:5.0f} {area} {power}")
    return "\n".join(lines)


def shape_checks(rows: Sequence[Table1Row]) -> List[str]:
    """Qualitative conclusions of §4; returns violated claims (empty = ok).

    1. Within every table option, more buses never require a higher clock,
       and the 3-FU configuration never beats tripled buses by less than
       the single-bus baseline (monotone ordering).
    2. Tree beats sequential, CAM beats tree, in every configuration.
    3. CAM barely benefits from FU multiplication (< 25 % clock change).
    4. The sequential option is infeasible (beyond the library) except at
       most its most parallel configuration.
    """
    violations: List[str] = []
    by_kind: Dict[str, List[Table1Row]] = {}
    for row in rows:
        # The paper's qualitative claims only cover its own three
        # options; extended kinds ride along without shape constraints.
        if row.table_kind in TABLE_KINDS:
            by_kind.setdefault(row.table_kind, []).append(row)
    if any(len(by_kind.get(kind, [])) != 3 for kind in TABLE_KINDS):
        return ["incomplete paper grid: need all nine "
                "{sequential, balanced-tree, cam} x configuration rows"]

    for kind, group in by_kind.items():
        clocks = [r.measured.required_clock_hz for r in group]
        if not (clocks[0] >= clocks[1] >= clocks[2] * 0.999):
            violations.append(
                f"{kind}: clocks not monotone over configurations: {clocks}")
    for i in range(3):
        seq = by_kind["sequential"][i].measured.required_clock_hz
        tree = by_kind["balanced-tree"][i].measured.required_clock_hz
        cam = by_kind["cam"][i].measured.required_clock_hz
        if not seq > tree > cam:
            violations.append(
                f"row {i}: expected sequential > tree > CAM, got "
                f"{seq:.3g} / {tree:.3g} / {cam:.3g}")
    cam_rows = by_kind["cam"]
    three_bus = cam_rows[1].measured.required_clock_hz
    three_fu = cam_rows[2].measured.required_clock_hz
    if abs(three_bus - three_fu) / three_bus > 0.25:
        violations.append(
            "CAM: FU multiplication changed the required clock by more "
            f"than 25% ({three_bus:.3g} -> {three_fu:.3g})")
    return violations
