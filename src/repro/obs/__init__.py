"""repro.obs — unified observability: metrics and profiling hooks.

The layer every performance claim in this repository is proven against:
a process-wide :class:`MetricsRegistry` (counters, gauges, histograms
with labels) that the hot paths publish into, and deterministic
serialisation (``snapshot()``) surfaced as the ``metrics`` section of
every ``--output`` JSON, the ``taco-explore metrics`` subcommand, and
``repro.api.metrics()``.

Opt out with ``REPRO_NO_METRICS=1`` or ``get_registry().disable()`` —
disabled instruments cost one attribute check per call site.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_ENV,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_snapshot,
    set_registry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "METRICS_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "render_snapshot",
    "set_registry",
]
