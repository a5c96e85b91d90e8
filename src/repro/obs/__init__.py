"""repro.obs — unified observability: metrics and profiling hooks.

The layer every performance claim in this repository is proven against:
a process-wide :class:`MetricsRegistry` (counters, gauges, histograms
with labels) that the hot paths publish into, and deterministic
serialisation (``snapshot()``) surfaced as the ``metrics`` section of
every ``--output`` JSON, the ``taco-explore metrics`` subcommand, and
``repro.api.metrics()``. Every metric is declared once, in
:mod:`repro.obs.catalogue`, which also generates the snapshot's schema.

Opt out with ``REPRO_NO_METRICS=1`` or ``get_registry().disable()``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": ("DEFAULT_BUCKETS", "METRICS_ENV", "Counter", "Gauge",
                 "Histogram", "MetricsRegistry", "get_registry",
                 "render_snapshot", "set_registry"),
})
