"""Process-wide metrics: counters, gauges, and histograms with labels.

The paper's whole method rests on *observing* architecture instances —
"the simulations yield functional correctness information as well as the
total cycle count of the application" plus module and bus utilisation.
This module is the production-scale generalisation of that idea: one
:class:`MetricsRegistry` per process into which every hot path
(simulation, campaigns, the router network, the routing tables) publishes
what it measured, renderable as a table (``taco-explore metrics``) and
serialisable as the ``metrics`` section of every ``--output`` JSON.

Design constraints, in priority order:

* **measurement must not perturb measurement** — instruments never touch
  the values that flow into results; they observe at run boundaries, so
  Table 1 and the explorer render byte-identically with metrics on or
  off;
* **nothing recorded when disabled** — code publishes through the entries
  of :mod:`repro.obs.catalogue`, which check ``registry.enabled`` in one
  place and create no instrument on a disabled registry; set
  ``REPRO_NO_METRICS=1`` or call :meth:`MetricsRegistry.disable`;
* **deterministic serialisation** — :meth:`MetricsRegistry.snapshot`
  sorts every metric and label set, so two identical runs produce
  structurally identical documents (timing values naturally differ);
* **explicit time injection** — wall-clock reads go through the
  registry's ``time_fn`` so deterministic tests can inject a fake clock.

Metrics are process-local: a parallel campaign's pool workers publish
into their own (discarded) registries; the parent observes the pool from
the outside (chunk latencies, queue depth, worker utilisation).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError

METRICS_ENV = "REPRO_NO_METRICS"
"""Set to ``1`` (or any non-empty value except ``0``) to disable metrics."""

#: default histogram buckets, in seconds: µs-scale simulator runs up to
#: minute-scale campaign sweeps
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_LabelKey = Tuple[str, ...]


def _disabled_by_env() -> bool:
    value = os.environ.get(METRICS_ENV, "")
    return value not in ("", "0")


class _Instrument:
    """Shared naming/label plumbing for all three instrument kinds."""

    kind = "abstract"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 label_names: Sequence[str]):
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, object]) -> _LabelKey:
        # equal sizes and every declared name present: the same name set
        if len(labels) == len(self.label_names):
            try:
                return tuple([str(labels[name])
                              for name in self.label_names])
            except KeyError:
                pass
        raise ObservabilityError(
            f"metric {self.name!r} takes labels "
            f"{sorted(self.label_names)}, got {sorted(labels)}")

    def _labelled(self, key: _LabelKey) -> Dict[str, str]:
        return dict(zip(self.label_names, key))


class _Scalar(_Instrument):
    """One value per label set: what counters and gauges share."""

    #: a counter never decreases
    monotonic = False

    def __init__(self, registry, name, help, label_names):
        super().__init__(registry, name, help, label_names)
        self._values: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if self._registry.enabled:
            self._inc(amount, labels)

    def _inc(self, amount: float, labels: Dict[str, object]) -> None:
        """:meth:`inc` with the labels in one dict, on an enabled
        registry: the catalogue's one-call publish."""
        if amount < 0 and self.monotonic:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (amount={amount})")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def _snapshot_values(self) -> List[Dict[str, object]]:
        return [{"labels": self._labelled(key), "value": value}
                for key, value in sorted(self._values.items())]


class Counter(_Scalar):
    """A monotonically increasing count (events, cycles, frames...)."""

    kind = "counter"
    monotonic = True


class Gauge(_Scalar):
    """A point-in-time value (queue depth, utilisation, rates)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        if self._registry.enabled:
            self._set(value, labels)

    def _set(self, value: float, labels: Dict[str, object]) -> None:
        self._values[self._key(labels)] = value


class Histogram(_Instrument):
    """A distribution: cumulative bucket counts plus sum and count."""

    kind = "histogram"

    def __init__(self, registry, name, help, label_names,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(registry, name, help, label_names)
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ObservabilityError(
                f"histogram {self.name!r} needs at least one bucket")
        self.buckets = bounds
        # per label set: [per-bucket counts..., +Inf count], sum, count
        self._series: Dict[_LabelKey, List[float]] = {}
        self._sums: Dict[_LabelKey, float] = {}
        self._counts: Dict[_LabelKey, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        if self._registry.enabled:
            self._observe(value, labels)

    def _observe(self, value: float, labels: Dict[str, object]) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = [0.0] * (len(self.buckets) + 1)
            self._series[key] = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series[i] += 1
                break
        else:
            series[-1] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._counts.get(self._key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def mean(self, **labels: object) -> float:
        count = self.count(**labels)
        return self.sum(**labels) / count if count else 0.0

    def _snapshot_values(self) -> List[Dict[str, object]]:
        out = []
        for key in sorted(self._series):
            out.append({
                "labels": self._labelled(key),
                "count": self._counts[key],
                "sum": self._sums[key],
                "buckets": list(self._series[key]),
            })
        return out


class MetricsRegistry:
    """Get-or-create home for every instrument in one process.

    Instruments are identified by name; re-requesting a name returns the
    existing instrument (label names and kind must match — a mismatch is
    a programming error and raises :class:`ObservabilityError`).
    """

    def __init__(self, enabled: Optional[bool] = None,
                 time_fn: Optional[Callable[[], float]] = None):
        if enabled is None:
            enabled = not _disabled_by_env()
        self.enabled = bool(enabled)
        self.time_fn = time_fn or time.perf_counter
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------------

    def disable(self) -> None:
        """Turn every instrument and catalogue entry into a no-op."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        """Drop all recorded values (instrument definitions are kept)."""
        with self._lock:
            for instrument in self._instruments.values():
                for attr in ("_values", "_series", "_sums", "_counts"):
                    store = getattr(instrument, attr, None)
                    if store is not None:
                        store.clear()

    def time(self) -> float:
        """Read the injected clock (``time.perf_counter`` by default)."""
        return self.time_fn()

    # -- instrument factories -----------------------------------------------------

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(self, name, help, labels, **kwargs)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, requested {cls.kind}")
        if tuple(labels) != instrument.label_names:
            raise ObservabilityError(
                f"metric {name!r} already registered with labels "
                f"{list(instrument.label_names)}, requested {list(labels)}")
        return instrument

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Deterministic JSON-ready view of every instrument."""
        snapshot: Dict[str, object] = {
            "enabled": self.enabled, "counters": {}, "gauges": {},
            "histograms": {}}
        with self._lock:
            instruments = sorted(self._instruments.items())
        for name, instrument in instruments:
            entry = {
                "help": instrument.help,
                "label_names": list(instrument.label_names),
                "values": instrument._snapshot_values(),
            }
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
            snapshot[instrument.kind + "s"][name] = entry
        return snapshot

    def render(self) -> str:
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, object]) -> str:
    """Fixed-width text table for a :meth:`MetricsRegistry.snapshot`.

    Also accepts a full ``--output`` document (uses its ``metrics`` key).
    """
    if "metrics" in snapshot and "counters" not in snapshot:
        snapshot = snapshot["metrics"]  # a full --output document
    rows: List[Tuple[str, str, str, str]] = []
    for section, value_field in (("counters", "value"),
                                 ("gauges", "value")):
        for name, entry in sorted(snapshot.get(section, {}).items()):
            for sample in entry["values"]:
                rows.append((name, _format_labels(sample["labels"]),
                             _format_number(sample[value_field]),
                             entry.get("help", "")))
    for name, entry in sorted(snapshot.get("histograms", {}).items()):
        for sample in entry["values"]:
            count = sample["count"]
            mean = sample["sum"] / count if count else 0.0
            rows.append((name, _format_labels(sample["labels"]),
                         f"n={count} mean={mean:.6f}s",
                         entry.get("help", "")))
    if not rows:
        state = "enabled" if snapshot.get("enabled", True) else "disabled"
        return f"(no metrics recorded; registry {state})"
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    header = ("metric".ljust(widths[0]) + "  "
              + "labels".ljust(widths[1]) + "  "
              + "value".ljust(widths[2]) + "  help")
    lines = [header, "-" * len(header)]
    for name, labels, value, help_text in rows:
        lines.append(name.ljust(widths[0]) + "  " + labels.ljust(widths[1])
                     + "  " + value.ljust(widths[2]) + "  " + help_text)
    return "\n".join(lines)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return "-"
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _format_number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


# -- the process-wide default registry ---------------------------------------------

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every hot path publishes into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
