"""Rendering for hazard diagnostics aggregated across runs."""

from __future__ import annotations

from typing import Dict, Optional


def render_hazard_summary(counts: Optional[Dict[str, int]]) -> str:
    if not counts:
        return "hazards: none detected"
    body = ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
    return f"hazards: {body}"
