"""System-level physical estimation (the paper's Matlab-model role)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".area": ("AreaBreakdown", "estimate_area"),
    ".frequency": ("CALIBRATION_PACKET_BYTES", "LINE_RATE_BPS",
                   "ThroughputConstraint", "packet_rate",
                   "required_clock_hz"),
    ".lookup": ("LOOKUP_COST_MODELS", "PROTECTION_WORD_BITS",
                "LookupCostParameters", "LookupEstimate",
                "estimate_lookup_point", "estimate_protection_overhead"),
    ".power": ("PowerBreakdown", "estimate_power"),
    ".technology": ("MAX_CLOCK_HZ", "feasible", "gate_sizing_factor"),
})
