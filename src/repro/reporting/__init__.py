"""Reporting helpers: text tables and architecture descriptions."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".architecture": ("describe_machine", "to_dot"),
    ".hazards": ("render_hazard_summary",),
    ".reliability": ("render_vulnerability_table",),
    ".tables": ("render_rows", "render_sweep"),
})
