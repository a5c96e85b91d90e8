"""Every metric the program publishes, declared once.

A :class:`Metric` declares kind, name, help, label names and the domain
of each label whose values form a closed set. Its ``inc``/``set``/
``observe`` publish into the current registry only when that registry is
enabled, creating the instrument there on first publish: the enabled
check lives here, once, and a disabled run records nothing.

To add a metric, declare it below, publish through it, and regenerate
the checked-in schema that :func:`schema` builds from these entries::

    PYTHONPATH=src python -m repro.obs.catalogue > schemas/metrics.schema.json

Only the standard library and ``repro.obs.metrics`` are imported here;
:func:`label_domains` imports the constants the domains come from.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from repro.obs import metrics as _metrics

#: every declared metric, in declaration order
CATALOGUE: List["Metric"] = []


class Metric:
    """One declared metric; publishes into the current registry."""

    __slots__ = ("kind", "name", "help", "label_names", "domains", "_bound")

    def __init__(self, kind: str, name: str, help: str,
                 labels: Union[Sequence[str], Mapping[str, str]] = ()):
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        #: label name -> domain key in :func:`label_domains`
        self.domains = dict(labels) if isinstance(labels, Mapping) else {}
        #: (registry, instrument) this metric last resolved in
        self._bound: tuple = (None, None)
        CATALOGUE.append(self)

    def _instrument(self, registry):
        bound, instrument = self._bound
        if bound is not registry:
            instrument = getattr(registry, self.kind)(
                self.name, self.help, self.label_names)
            self._bound = (registry, instrument)
        return instrument

    # a disabled registry costs each publish one call and one check; an
    # enabled one hands the labels dict to the instrument in one call
    def inc(self, amount: float = 1, **labels: object) -> None:
        registry = _metrics._default_registry
        if registry.enabled:
            self._instrument(registry)._inc(amount, labels)

    def set(self, value: float, **labels: object) -> None:
        registry = _metrics._default_registry
        if registry.enabled:
            self._instrument(registry)._set(value, labels)

    def observe(self, value: float, **labels: object) -> None:
        registry = _metrics._default_registry
        if registry.enabled:
            self._instrument(registry)._observe(value, labels)


_counter = functools.partial(Metric, "counter")
_gauge = functools.partial(Metric, "gauge")
_histogram = functools.partial(Metric, "histogram")

_BACKEND = {"backend": "simulator_backend"}
_TABLE = {"kind": "routing_table_kind"}
_PROTECTED = {"kind": "routing_table_kind", "protection": "protection"}

TTA_RUNS = _counter("tta_runs_total", "completed Simulator.run calls",
                    _BACKEND)
TTA_CYCLES = _counter("tta_cycles_total", "simulated clock cycles", _BACKEND)
TTA_MOVES = _counter("tta_moves_total", "executed transports (moves)",
                     _BACKEND)
TTA_RUN_SECONDS = _histogram("tta_run_seconds",
                             "wall-clock time per Simulator.run", _BACKEND)
TTA_CYCLES_PER_SECOND = _gauge("tta_cycles_per_second",
                               "simulation speed of the most recent run",
                               _BACKEND)
TTA_MOVES_PER_SECOND = _gauge("tta_moves_per_second",
                              "transport throughput of the most recent run",
                              _BACKEND)
TTA_HAZARDS = _counter("tta_hazards_total",
                       "hazards detected during simulation", ("kind",))
SIMULATOR_FALLBACK = _counter(
    "simulator_fallback_total",
    "compiled-backend runs that fell back to the interpreter",
    {"reason": "fallback_reason"})

ROUTING_LOOKUPS = _counter(
    "routing_lookups_total", "longest-prefix-match lookups",
    {**_TABLE, "outcome": "routing_lookup_outcome"})
ROUTING_LOOKUP_STEPS = _counter(
    "routing_lookup_steps_total", "elements examined across lookups "
    "(steps/lookups = comparisons per lookup)", _TABLE)
ROUTING_UPDATES = _counter("routing_updates_total",
                           "route insertions and removals",
                           {**_TABLE, "op": "routing_update_op"})
ROUTING_UPDATE_STEPS = _counter("routing_update_steps_total",
                                "elements touched by table updates", _TABLE)
ROUTING_CAM_BUSY_CYCLES = _counter(
    "routing_cam_busy_cycles_total", "CAM cycles occupied by searches "
    "(40 ns per search at the part's reference clock)")
ROUTING_CORRUPTION_DETECTED = _counter(
    "routing_corruption_detected_total",
    "memory corruption events caught by integrity protection", _PROTECTED)
ROUTING_DEGRADED_LOOKUPS = _counter(
    "routing_degraded_lookups_total", "lookups answered from the route "
    "journal after a corruption detection", _PROTECTED)

DSE_EVALUATIONS = _counter("dse_evaluations_total",
                           "campaign evaluations by outcome", ("status",))
DSE_EVALUATION_SECONDS = _histogram(
    "dse_evaluation_seconds", "wall-clock latency per in-process evaluation",
    ("status",))
DSE_RETRIES = _counter("dse_retries_total",
                       "cycle-budget retries across all evaluations")
DSE_QUARANTINED = _counter(
    "dse_quarantined_total",
    "configurations quarantined after contained failures")
DSE_RESUMED = _counter("dse_resumed_total",
                       "evaluations replayed from a journal")
DSE_CHUNKS_DISPATCHED = _counter("dse_chunks_dispatched_total",
                                 "chunks handed to the process pool")
DSE_CHUNK_SECONDS = _histogram("dse_chunk_seconds",
                               "wall-clock latency per dispatched pool chunk")
DSE_INFLIGHT_CHUNKS = _gauge(
    "dse_inflight_chunks",
    "chunks dispatched to the pool and not yet completed")
DSE_WORKER_UTILIZATION = _gauge(
    "dse_worker_utilization", "fraction of pool worker-seconds spent "
    "evaluating during the most recent sweep")
DSE_WORKER_CRASHES = _counter("dse_worker_crashes_total",
                              "pool teardowns after a worker process died")
DSE_WORKER_STALLS = _counter(
    "dse_worker_stalls_total",
    "pools and probes terminated after a missed stall deadline")
DSE_POOL_SHRINKS = _counter(
    "dse_pool_shrinks_total",
    "workers removed from the pool after broken generations")
DSE_POOL_SIZE = _gauge("dse_pool_size",
                       "current worker-pool size after degradation")
DSE_BACKOFF_SECONDS = _counter("dse_backoff_seconds_total",
                               "seconds slept before refilling broken pools")
LOOKUP_SWEEP_CELLS = _counter("lookup_sweep_cells_total",
                              "scaling-sweep cells by outcome", ("status",))
LOOKUP_SWEEP_RESUMED = _counter("lookup_sweep_resumed_total",
                                "sweep cells replayed from a journal")
SDC_TRIALS = _counter("sdc_trials_total",
                      "classified injection trials by status", ("status",))
SDC_OUTCOMES = _counter("sdc_outcomes_total",
                        "injection trials by oracle classification",
                        {"outcome": "sdc_outcome"})
SDC_RESUMED = _counter("sdc_resumed_total",
                       "injection trials replayed from a journal")
SDC_INJECTIONS = _counter("sdc_injections_total",
                          "datapath faults actually applied", ("site",))
SDC_MEMORY_INJECTIONS = _counter(
    "sdc_memory_injections_total", "table-state bit flips actually applied",
    {"memory_site": "memory_site", "protection": "protection"})

RIPNG_REJECTED = _counter(
    "ripng_rejected_total",
    "Hostile or invalid RIPng input refused, by reason", ("router", "reason"))
NET_ROUNDS = _counter("net_rounds_total", "simulation rounds stepped")
NET_FRAMES_DELIVERED = _counter("net_frames_delivered_total",
                                "frames delivered across all links")
NET_FRAMES_IN_FLIGHT = _gauge("net_frames_in_flight",
                              "fault-model-delayed frames awaiting delivery")
NET_LINK_FRAMES = _counter("net_link_frames_total",
                           "frames entering each link's fault model",
                           ("link",))
NET_LINK_FAULTS = _counter("net_link_faults_total",
                           "fault-model interventions per link",
                           ("link", "fault"))
NET_LINK_DROPPED = _counter("net_link_dropped_total",
                            "frames lost because the link was down",
                            ("link",))
NET_CONVERGENCE_ROUNDS = _gauge("net_convergence_rounds",
                                "rounds the most recent convergence run took")
NET_CONVERGENCE_RUNS = _counter("net_convergence_runs_total",
                                "run_until_converged outcomes",
                                ("converged",))
NET_CONVERGENCE_SECONDS = _histogram(
    "net_convergence_seconds",
    "wall-clock time per run_until_converged call")

CONFORMANCE_CASES = _counter("conformance_cases_total",
                             "conformance case verdicts", ("table", "status"))
REPLAY_LATENCY_SECONDS = _histogram(
    "replay_latency_seconds", "per-packet golden-model forwarding latency",
    ("table",))
REPLAY_LATENCY_QUANTILE_SECONDS = _gauge(
    "replay_latency_quantile_seconds", "replay latency percentiles",
    ("table", "quantile"))

SERVICE_JOBS = _counter("service_jobs_total", "job state transitions",
                        {"state": "job_state"})
SERVICE_ACTIVE_JOBS = _gauge("service_active_jobs", "jobs currently executing")
SERVICE_JOB_RETRIES = _counter(
    "service_job_retries_total",
    "transparent job re-runs after transient infrastructure failures")
SERVICE_RECOVERED_JOBS = _counter(
    "service_recovered_jobs_total",
    "running jobs re-queued after a service crash/restart")
SERVICE_CACHE_REQUESTS = _counter("service_cache_requests_total",
                                  "evaluation-cache lookups by result",
                                  {"result": "cache_result"})
SERVICE_CACHE_QUARANTINED = _counter(
    "service_cache_quarantined_total",
    "damaged cache entries moved aside for forensics")


# -- the generated schema ------------------------------------------------------------


def label_domains() -> Dict[str, Tuple[str, ...]]:
    """Domain key -> allowed label values, from the code's constants."""
    from repro.faults.memory import MEMORY_SITES
    from repro.routing import PROTECTION_MODES, TABLE_KINDS
    from repro.service.jobs import JOB_STATES
    from repro.tta.backends import BACKENDS
    from repro.verify.oracle import OUTCOMES
    return {
        "cache_result": ("hit", "miss", "corrupt"),
        "fallback_reason": ("move_hook", "transport_filter",
                            "move_hook+transport_filter", "pending_state"),
        "job_state": JOB_STATES,
        "memory_site": MEMORY_SITES,
        "protection": PROTECTION_MODES,
        "routing_lookup_outcome": ("hit", "miss"),
        "routing_table_kind": tuple(TABLE_KINDS),
        "routing_update_op": ("insert", "remove"),
        "sdc_outcome": OUTCOMES,
        "simulator_backend": tuple(BACKENDS),
    }


def _object(properties: Dict[str, object]) -> Dict[str, object]:
    return {"type": "object", "required": list(properties),
            "additionalProperties": False, "properties": properties}


_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}


def _metric_schema(metric: Metric) -> Dict[str, object]:
    labels = _object({
        name: ({"$ref": f"#/definitions/{metric.domains[name]}"}
               if name in metric.domains else {"type": "string"})
        for name in metric.label_names})
    if metric.kind == "histogram":
        sample = {"count": _NUMBER, "sum": _NUMBER, "buckets": _NUMBERS}
        extra = {"buckets": _NUMBERS}
    else:
        sample, extra = {"value": _NUMBER}, {}
    return _object({
        "help": {"type": "string"},
        "label_names": {"enum": [list(metric.label_names)]},
        "values": {"type": "array",
                   "items": _object({"labels": labels, **sample})},
        **extra})


def schema() -> Dict[str, object]:
    """The JSON schema of a metrics snapshot: each section admits its
    declared metrics and nothing else."""
    domains = label_domains()
    sections: Dict[str, Dict[str, object]] = {
        "counters": {}, "gauges": {}, "histograms": {}}
    for metric in sorted(CATALOGUE, key=lambda metric: metric.name):
        sections[metric.kind + "s"][metric.name] = _metric_schema(metric)
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "repro metrics snapshot",
        "description": "The `metrics` section of every --output JSON "
                       "document, generated from repro.obs.catalogue.",
        **_object({"enabled": {"type": "boolean"}, **{
            section: {"type": "object", "additionalProperties": False,
                      "properties": declared}
            for section, declared in sections.items()}}),
        "definitions": {key: {"type": "string", "enum": list(values)}
                        for key, values in sorted(domains.items())},
    }


if __name__ == "__main__":
    print(json.dumps(schema(), indent=2))
