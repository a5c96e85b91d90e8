"""Crash-safe, resumable design-space campaigns with fault isolation.

A *campaign* is a long-running sweep of evaluations — an exhaustive
enumeration, a Table 1 regeneration, or a heuristic explorer's walk. The
bare :class:`~repro.dse.evaluator.ArchitectureEvaluator` raises on the
first bad configuration, which forfeits every result a long sweep
already earned. :class:`CampaignRunner` wraps an evaluator with the
resilience a production sweep needs, and is the one path every Table 1
and explorer run takes — in memory or journalled, in this process or
over a ``jobs``-worker pool:

* **fault isolation** — a failing configuration becomes a structured
  :class:`EvaluationFailure` record (error class, message, cycle/pc,
  retries, loop signature) instead of an exception that aborts the sweep;
* **cycle-budget deadlines** — each evaluation runs under a cycle budget;
  a budget-class failure (:class:`~repro.errors.CycleBudgetError`) is
  retried once at :data:`RETRY_BUDGET_FACTOR` times the budget before
  the configuration is declared runaway;
* **quarantine** — configurations that fail deterministically (functional
  mismatches, structural errors, exhausted retries) are quarantined:
  recorded, reported, and never re-evaluated;
* **crash-safe persistence** — every outcome is appended to a JSONL
  journal, fsync'd per record, so a killed campaign loses at most the
  record being written;
* **resume** — replaying the journal skips every already-evaluated
  configuration (a torn trailing record is discarded and the journal is
  compacted via atomic temp-file + rename); a resumed campaign's final
  output is byte-identical to an uninterrupted run's.

Journal records carry the evaluation's *inputs* to the physical
estimation (cycles, utilisation, required clock, program-store footprint),
so replayed results are reconstructed exactly through the same pure
estimation functions rather than approximated.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.config import (
    ArchitectureConfiguration,
    TABLE_KINDS,
    table1_configurations,
)
from repro.dse.evaluator import (
    DEFAULT_EVALUATION_MAX_CYCLES,
    ArchitectureEvaluator,
    EvaluationResult,
)
from repro.dse.protocols import Evaluator
from repro.dse.sweep import JOURNAL_VERSION, JournaledSweep
from repro.dse.table1 import PAPER_TABLE1, Table1Row
from repro.errors import (
    CampaignError,
    ConfigurationError,
    CycleBudgetError,
    ReproError,
)
from repro.estimation.area import estimate_area
from repro.estimation.power import estimate_power
from repro.obs import get_registry
from repro.obs.catalogue import DSE_EVALUATION_SECONDS, DSE_EVALUATIONS, \
    DSE_QUARANTINED, DSE_RETRIES
from repro.tta.backends import resolve_backend_name


# -- configuration (de)serialisation -----------------------------------------------


def config_to_dict(config: ArchitectureConfiguration) -> Dict[str, object]:
    return dataclasses.asdict(config)


def config_from_dict(payload: Dict[str, object]) -> ArchitectureConfiguration:
    return ArchitectureConfiguration(**payload)


def config_key(config: ArchitectureConfiguration) -> str:
    """Canonical identity of the *requested* configuration.

    The CAM search latency is normalised away: it is an output of the
    evaluator's clock/latency fixed point, not part of the request.
    """
    payload = config_to_dict(config.with_cam_latency(1))
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- structured outcomes -----------------------------------------------------------


@dataclass(frozen=True)
class EvaluationFailure:
    """One configuration's diagnosed, contained failure."""

    config: ArchitectureConfiguration
    error: str  # exception class name
    message: str
    retries: int = 0
    cycle_budget: Optional[int] = None
    cycles_executed: Optional[int] = None
    pc: Optional[int] = None
    loop: Optional[str] = None
    mismatches: Tuple[str, ...] = ()
    quarantined: bool = True

    def render(self) -> str:
        parts = [f"{self.config.describe()}: {self.error}"]
        if self.retries:
            parts.append(f"after {self.retries} retry(ies), final budget "
                         f"{self.cycle_budget} cycles")
        if self.loop:
            parts.append(self.loop)
        if self.mismatches:
            parts.append(f"{len(self.mismatches)} mismatch(es)")
        return "; ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return failure_to_record(self)


@dataclass
class CampaignResult:
    """Outcome of one (possibly resumed) campaign sweep."""

    records: List[Dict[str, object]]  # input order, one per configuration
    results: List[EvaluationResult]
    failures: List[EvaluationFailure]
    resumed: int = 0
    discarded_records: int = 0

    @property
    def quarantined(self) -> List[ArchitectureConfiguration]:
        return [f.config for f in self.failures if f.quarantined]

    def hazard_counts(self) -> Dict[str, int]:
        """Hazard occurrences summed over every record."""
        counts: Dict[str, int] = {}
        for record in self.records:
            for kind, count in record.get("hazards", {}).items():
                counts[kind] = counts.get(kind, 0) + count
        return counts

    def render(self) -> str:
        """The campaign's final artifact: one deterministic text table.

        Rendered purely from journal records, so a resumed campaign
        reproduces an uninterrupted run byte for byte.
        """
        from repro.reporting.tables import render_rows
        rows: List[List[object]] = []
        for record in self.records:
            config = config_from_dict(record["config"])
            if record["status"] == "ok":
                result = result_from_record(record)
                area = (f"{result.area_mm2:.2f}"
                        if result.area_mm2 is not None else "NA")
                power = (f"{result.power_w:.3f}"
                         if result.power_w is not None else "NA")
                rows.append([
                    config.table_kind, config.label(), "ok",
                    f"{result.required_clock_hz / 1e6:.1f}",
                    f"{result.bus_utilization * 100:.1f}",
                    area, power])
            else:
                rows.append([config.table_kind, config.label(),
                             "QUARANTINED", record.get("error", "?"),
                             "", "", ""])
        table = render_rows(
            ["Table", "Configuration", "Status", "Clock MHz", "Bus%",
             "Area mm2", "Power W"], rows)
        # Deliberately free of resume/journal bookkeeping: the artifact
        # must be byte-identical whether the campaign ran through or was
        # killed and resumed.
        footer = (f"{len(self.results)} evaluated, "
                  f"{len(self.quarantined)} quarantined")
        return table + "\n" + footer

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: journal records in input order plus totals."""
        return {
            "records": list(self.records),
            "evaluated": len(self.results),
            "quarantined": [config_to_dict(c) for c in self.quarantined],
            "resumed": self.resumed,
            "discarded_records": self.discarded_records,
        }


# -- record <-> result conversion --------------------------------------------------


def result_to_record(result: EvaluationResult,
                     requested: ArchitectureConfiguration
                     ) -> Dict[str, object]:
    record: Dict[str, object] = {
        "v": JOURNAL_VERSION,
        "key": config_key(requested),
        "status": "ok",
        "config": config_to_dict(requested),
        "resolved": config_to_dict(result.config),
        "cycles_per_packet": result.cycles_per_packet,
        "bus_utilization": result.bus_utilization,
        "required_clock_hz": result.required_clock_hz,
        "feasible": result.feasible,
        "program_store_kbyte":
            ArchitectureEvaluator._program_store_kbyte(result.run),
    }
    if result.run is not None and result.run.hazard_report is not None:
        record["hazards"] = result.run.hazard_report.by_kind()
    return record


def result_from_record(record: Dict[str, object]) -> EvaluationResult:
    """Reconstruct a result exactly from its journal record.

    The record stores the estimation *inputs*; area and power are
    recomputed through the same pure estimation functions, so every float
    matches the live evaluation bit for bit.
    """
    config = config_from_dict(record["resolved"])
    clock = record["required_clock_hz"]
    feasible = record["feasible"]
    area = power = None
    if feasible:
        area = estimate_area(
            config, clock,
            program_store_kbyte=record["program_store_kbyte"])
        power = estimate_power(
            config, clock, bus_utilization=record["bus_utilization"],
            area=area)
    return EvaluationResult(
        config=config,
        cycles_per_packet=record["cycles_per_packet"],
        bus_utilization=record["bus_utilization"],
        required_clock_hz=clock, feasible=feasible,
        area=area, power=power, run=None)


def failure_to_record(failure: EvaluationFailure) -> Dict[str, object]:
    return {
        "v": JOURNAL_VERSION,
        "key": config_key(failure.config),
        "status": "failed",
        "config": config_to_dict(failure.config),
        "error": failure.error,
        "message": failure.message,
        "retries": failure.retries,
        "cycle_budget": failure.cycle_budget,
        "cycles_executed": failure.cycles_executed,
        "pc": failure.pc,
        "loop": failure.loop,
        "mismatches": list(failure.mismatches),
        "quarantined": failure.quarantined,
    }


def failure_from_record(record: Dict[str, object]) -> EvaluationFailure:
    return EvaluationFailure(
        config=config_from_dict(record["config"]),
        error=record["error"],
        message=record["message"],
        retries=record.get("retries", 0),
        cycle_budget=record.get("cycle_budget"),
        cycles_executed=record.get("cycles_executed"),
        pc=record.get("pc"),
        loop=record.get("loop"),
        mismatches=tuple(record.get("mismatches", ())),
        quarantined=record.get("quarantined", True),
    )


# -- the runner --------------------------------------------------------------------


#: a budget-class failure is retried at this multiple of its budget ...
RETRY_BUDGET_FACTOR = 4
#: ... this many times before the configuration is declared runaway
MAX_RETRIES = 1


def evaluate_guarded(evaluator: Evaluator,
                     config: ArchitectureConfiguration,
                     cycle_budget: int) -> Dict[str, object]:
    """One evaluation under *cycle_budget* and the campaign's retry
    rule.

    Returns the journal record (``status`` ``ok`` or ``failed``) and never
    raises for the failure classes a campaign contains
    (:class:`~repro.errors.ReproError`). This is the unit of work of a
    :class:`CampaignRunner`, in this process and in its pool workers
    alike — each worker enforces the cycle budget locally.
    """
    budget = cycle_budget
    retries = 0
    while True:
        try:
            result = evaluator.evaluate(config, max_cycles=budget)
        except CycleBudgetError as exc:
            if retries < MAX_RETRIES:
                retries += 1
                budget *= RETRY_BUDGET_FACTOR
                continue
            failure = EvaluationFailure(
                config=config, error=type(exc).__name__,
                message=str(exc), retries=retries, cycle_budget=budget,
                cycles_executed=exc.cycles, pc=exc.pc,
                loop=exc.loop.render() if exc.loop else None)
            return failure_to_record(failure)
        except ReproError as exc:
            # Deterministic failure classes (functional mismatch,
            # structural/configuration errors): no retry can help.
            run = getattr(exc, "run", None)
            failure = EvaluationFailure(
                config=config, error=type(exc).__name__,
                message=str(exc), retries=retries,
                cycles_executed=(run.report.cycles
                                 if run is not None else None),
                mismatches=tuple(run.mismatches)
                if run is not None else ())
            return failure_to_record(failure)
        return result_to_record(result, config)


def _campaign_context(evaluator: Evaluator, cycle_budget: int):
    """The measurement context of a campaign, in the parent and in every
    pool worker: the runner's evaluator and its cycle budget."""
    return evaluator, cycle_budget


def _evaluate(config: ArchitectureConfiguration,
              context) -> Dict[str, object]:
    """One guarded evaluation; always returns a record."""
    evaluator, cycle_budget = context
    return evaluate_guarded(evaluator, config, cycle_budget)


class CampaignRunner(JournaledSweep):
    """Journal-backed, fault-isolating wrapper around an evaluator — the
    one runner every Table 1 and explorer sweep goes through.

    Explorers expand each search frontier through :meth:`evaluate_batch`:
    journal hits short-circuit, fresh evaluations are guarded and
    persisted, and a failure comes back as ``None`` (a dead end, not a
    crash). Every frontier is one sweep, so a search visits the same
    configurations in the same order at every job count.

    Journal, resume and sweeps run on the shared
    :class:`~repro.dse.sweep.JournaledSweep` engine. With ``jobs > 1`` a
    sweep fans out over that many worker processes, each holding its own
    copy of *evaluator* (inherited on ``fork``, pickled otherwise) and
    enforcing the cycle budget locally; records come back in input order
    and area/power are recomputed in the parent, so the output and the
    journal are byte-identical to a ``jobs=1`` run.
    """

    _key = staticmethod(config_key)
    measure = staticmethod(_evaluate)

    def __init__(self, evaluator: Evaluator,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 cycle_budget: Optional[int] = None,
                 *, jobs: int = 1,
                 chunk_size: Optional[int] = None):
        if cycle_budget is None:
            cycle_budget = DEFAULT_EVALUATION_MAX_CYCLES
        elif cycle_budget < 1:
            raise CampaignError(
                f"cycle budget must be >= 1, got {cycle_budget}")
        super().__init__(journal_path, resume, jobs=jobs,
                         chunk_size=chunk_size)
        self.evaluator = evaluator
        #: the first budget of every evaluation
        self.cycle_budget = cycle_budget

    def seed_record(self, key: str, record: Dict[str, object]) -> None:
        """Install an externally recovered record (evaluation cache hit,
        cross-campaign import) as if it had been journalled by this run.

        The record is appended to the journal like a fresh evaluation —
        so a later ``--resume`` replays it — but none of the fresh-
        evaluation metrics fire: the caller accounts for its own source
        (e.g. cache-hit counters).
        """
        if record.get("v") != JOURNAL_VERSION or record.get("key") != key \
                or "status" not in record:
            raise CampaignError(
                f"refusing to seed a malformed record for key {key!r}")
        self._records[key] = record
        self._append(record)

    # -- sweep driver -------------------------------------------------------------

    def run(self, configs: Sequence[ArchitectureConfiguration]
            ) -> CampaignResult:
        """Sweep *configs*; never raises on a bad configuration. Records
        come back in input order whatever the job count, so the rendered
        artifact is byte-identical to a sequential run's."""
        return self._result(self._sweep(configs))

    def evaluate_batch(self, configs: Sequence[ArchitectureConfiguration]
                       ) -> List[Optional[EvaluationResult]]:
        """Aligned results for *configs*; ``None`` marks a failure."""
        return [result_from_record(record) if record["status"] == "ok"
                else None for record in self._sweep(configs)]

    def result(self) -> CampaignResult:
        """Every record this runner holds, in the order it first recorded
        them — the campaign behind an explorer's many small sweeps."""
        return self._result(list(self._records.values()))

    def _result(self, records: List[Dict[str, object]]) -> CampaignResult:
        return CampaignResult(
            records=records,
            results=[result_from_record(r) for r in records
                     if r["status"] == "ok"],
            failures=[failure_from_record(r) for r in records
                      if r["status"] != "ok"],
            resumed=self.resumed, discarded_records=self.discarded_records)

    @property
    def quarantined(self) -> List[ArchitectureConfiguration]:
        return [failure_from_record(r).config
                for r in self._records.values()
                if r["status"] == "failed" and r.get("quarantined", True)]

    # -- engine hooks -------------------------------------------------------------

    def _context_spec(self):
        return _campaign_context, (self.evaluator, self.cycle_budget)

    def _measure_here(self, config: ArchitectureConfiguration
                      ) -> Dict[str, object]:
        registry = get_registry()
        t0 = registry.time() if registry.enabled else 0.0
        record = evaluate_guarded(self.evaluator, config, self.cycle_budget)
        if registry.enabled:
            DSE_EVALUATION_SECONDS.observe(registry.time() - t0,
                                           status=record["status"])
        return record

    def _failed_record(self, config: ArchitectureConfiguration, error: str,
                       message: str) -> Dict[str, object]:
        return failure_to_record(EvaluationFailure(
            config=config, error=error, message=message))

    def _publish(self, record: Dict[str, object]) -> None:
        """Status/retry/quarantine counters for one fresh record."""
        status = record["status"]
        DSE_EVALUATIONS.inc(status=status)
        retries = record.get("retries", 0)
        if retries:
            DSE_RETRIES.inc(retries)
        if status == "failed" and record.get("quarantined", True):
            DSE_QUARANTINED.inc()


class PoisonedEvaluator:
    """Evaluator wrapper that fails deterministically on chosen configs.

    The fault-injection fixture for campaign resilience (experiment E5 and
    the campaign tests): evaluations of *poisoned* configurations raise
    the given error class; everything else passes through untouched.
    """

    def __init__(self, evaluator: Evaluator,
                 poisoned: Sequence[ArchitectureConfiguration],
                 error: type = None):
        from repro.errors import FunctionalMismatchError
        self.evaluator = evaluator
        self._poisoned = {config_key(c) for c in poisoned}
        self._error = error or FunctionalMismatchError

    def evaluate(self, config: ArchitectureConfiguration,
                 max_cycles: Optional[int] = None) -> EvaluationResult:
        if config_key(config) in self._poisoned:
            raise self._error(
                f"poisoned configuration {config.describe()}")
        return self.evaluator.evaluate(config, max_cycles=max_cycles)

    def __getattr__(self, name):
        # Never forward dunder lookups: pickle/copy probe for protocol
        # hooks (__getstate__, __setstate__, __reduce_ex__, ...) before
        # the instance __dict__ is populated, and forwarding them through
        # ``self.evaluator`` would recurse into __getattr__ forever —
        # which is fatal for wrappers shipped to a process pool.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        evaluator = self.__dict__.get("evaluator")
        if evaluator is None:
            raise AttributeError(name)
        return getattr(evaluator, name)


# -- Table 1 over a campaign -------------------------------------------------------


def table1_workload(*, entries: int, packets: int, hazards: bool,
                    backend: Optional[str],
                    cycle_budget: Optional[int] = None,
                    prefixes: Optional[int] = None,
                    seed: int = 2026
                    ) -> Tuple[Callable[[], ArchitectureEvaluator],
                               Optional[int]]:
    """What a Table-1 workload runs on: an evaluator factory and the
    campaign's cycle budget.

    The one mapping from the workload keywords of
    :func:`repro.api.table1_campaign` (every key of a service plan but
    ``kinds``) to a :class:`CampaignRunner`'s inputs. The factory builds
    the paper's *entries*-route workload, or a synthesized
    *prefixes*-route FIB seeded by *seed*. The sizes and the backend
    name are checked here, before anything is simulated.
    """
    if entries < 1 or packets < 1:
        raise ConfigurationError(
            f"entries and packets must be >= 1, got {entries} and "
            f"{packets}")
    if backend is not None:
        resolve_backend_name(backend)
    factory = partial(_table1_evaluator, entries=entries, packets=packets,
                      hazards=hazards, backend=backend, prefixes=prefixes,
                      seed=seed)
    return factory, cycle_budget


def _table1_evaluator(*, entries: int, packets: int, hazards: bool,
                      backend: Optional[str], prefixes: Optional[int],
                      seed: int) -> ArchitectureEvaluator:
    routes = None
    if prefixes is not None:
        from repro.workload.fib import synthesize_fib
        routes = synthesize_fib(prefixes, seed=seed)
    return ArchitectureEvaluator(routes=routes, table_entries=entries,
                                 packet_batch=packets,
                                 detect_hazards=hazards, backend=backend)


def run_table1_campaign(runner: CampaignRunner,
                        kinds: Sequence[str] = TABLE_KINDS
                        ) -> Tuple[List[Table1Row], CampaignResult]:
    """Regenerate Table 1 under campaign resilience.

    Returns the rows for every configuration that evaluated successfully
    (paired with the paper's values, in paper order) plus the full
    campaign result; quarantined configurations are simply absent from
    the rows and present in ``result.failures``.
    """
    campaign = runner.run(table1_configurations(kinds))
    paper_by_key = {(r.table_kind, r.config_label): r for r in PAPER_TABLE1}
    rows = [Table1Row(paper=paper_by_key.get((result.config.table_kind,
                                              result.config.label())),
                      measured=result)
            for result in campaign.results]
    return rows, campaign


def generate_table1(evaluator: Optional[Evaluator] = None,
                    kinds: Sequence[str] = TABLE_KINDS) -> List[Table1Row]:
    """Table 1 rows for *evaluator* (default: the paper's workload), run
    as an in-memory :class:`CampaignRunner` sweep."""
    rows, _ = run_table1_campaign(
        CampaignRunner(evaluator or ArchitectureEvaluator()), kinds)
    return rows
