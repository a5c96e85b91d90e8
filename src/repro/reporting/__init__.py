"""Reporting helpers: text tables and architecture descriptions."""

from repro.reporting.architecture import (
    architecture_manifest,
    describe_machine,
    to_dot,
)
from repro.reporting.hazards import render_hazard_summary
from repro.reporting.reliability import render_vulnerability_table
from repro.reporting.tables import render_rows, render_sweep
from repro.reporting.utilization import (
    idle_units,
    module_utilization,
    render_utilization,
    saturated_units,
)

__all__ = ["render_rows", "render_sweep", "render_vulnerability_table",
           "architecture_manifest", "describe_machine", "to_dot",
           "render_hazard_summary",
           "idle_units", "module_utilization", "render_utilization",
           "saturated_units"]
