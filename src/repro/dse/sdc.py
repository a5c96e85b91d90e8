"""SDC-sweep campaigns: datapath vulnerability across a design space.

The reliability counterpart of the performance sweeps: for every
architecture configuration, run many seeded soft-error injection trials
(one per ``(site, trial index)``), classify each against the
fault-free golden run with the :class:`~repro.verify.DifferentialOracle`,
and distil a per-configuration vulnerability row — SDC rate, detection
coverage, mean faults-to-failure.

Both sweeps run on the shared :class:`~repro.dse.sweep.JournaledSweep`
engine, so everything hard-won by the performance campaigns is reused,
not reinvented:

* **journal + resume** — every classified trial is appended to the same
  fsync'd JSONL journal format, so a killed sweep resumes without
  repeating a single simulation and its final ``--output`` JSON is
  byte-identical;
* **parallelism** — trials fan out over a process pool; each worker
  builds its workload once and keeps an oracle cache, so the golden
  reference for a configuration is simulated once per worker, not once
  per trial. Records are persisted in plan order, so the journal is
  byte-identical to a sequential run's. A worker that dies does not end
  the sweep: the trials it left unfinished are re-probed one at a time,
  and a trial that kills its prober too is recorded failed with
  ``WorkerCrashError``;
* **determinism** — trial seeds derive from
  :func:`~repro.faults.seeds.derive_seed`\\ ``(seed, config_key, site,
  index)``, so results do not depend on job count, completion order, or
  which trials were resumed from the journal;
* **observability** — injection and outcome counters are published in
  the parent at persist time only, so sequential, parallel, and resumed
  sweeps account identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.campaign import config_key, config_to_dict
from repro.dse.config import (
    DEFAULT_MEMORY_FLIPS,
    DEFAULT_MEMORY_LOOKUPS,
    DEFAULT_RATE,
    DEFAULT_TRIALS,
    ArchitectureConfiguration,
)
from repro.dse.sweep import JOURNAL_VERSION, JournaledSweep, failed_record
from repro.errors import CampaignError, ReproError
from repro.estimation.lookup import estimate_protection_overhead
from repro.faults.datapath import FAULT_SITES
from repro.faults.memory import MEMORY_SITES
from repro.faults.seeds import derive_seed
from repro.obs.catalogue import SDC_INJECTIONS, SDC_MEMORY_INJECTIONS, \
    SDC_OUTCOMES, SDC_RESUMED, SDC_TRIALS
from repro.routing import TABLE_KINDS, make_table
from repro.routing.entry import RouteEntry
from repro.routing.protected import PROTECTION_MODES
from repro.verify.oracle import (
    OUTCOMES,
    DifferentialOracle,
    MemoryDifferentialOracle,
)
from repro.workload import generate_routes, worst_case_workload
from repro.workload.fib import synthesize_fib, zipf_addresses

DEFAULT_FIB_SEED = 2026
DEFAULT_TRAFFIC_SEED = 77


# -- trials ------------------------------------------------------------------------


@dataclass(frozen=True)
class SdcTrial:
    """One scheduled injection trial."""

    config: ArchitectureConfiguration
    site: str
    index: int
    seed: int
    rate: float
    max_faults: Optional[int]

    @property
    def key(self) -> str:
        """Canonical journal identity of this trial."""
        return json.dumps({
            "config": config_key(self.config),
            "site": self.site,
            "trial": self.index,
            "seed": self.seed,
            "rate": self.rate,
            "max_faults": self.max_faults,
        }, sort_keys=True, separators=(",", ":"))


def plan_trials(configs: Sequence[ArchitectureConfiguration],
                sites: Sequence[str], trials: int, rate: float,
                seed: int, max_faults: Optional[int]) -> List[SdcTrial]:
    """Deterministic trial enumeration: config-major, then site, then
    index. Seeds derive from the *identity* of the trial, never its
    position in the plan, so adding a site or config cannot re-roll any
    other trial."""
    plan: List[SdcTrial] = []
    for config in configs:
        key = config_key(config)
        for site in sites:
            for index in range(trials):
                plan.append(SdcTrial(
                    config=config, site=site, index=index,
                    seed=derive_seed(seed, key, site, index),
                    rate=rate, max_faults=max_faults))
    return plan


def _trial_identity(trial: SdcTrial) -> Dict[str, object]:
    return {
        "v": JOURNAL_VERSION,
        "key": trial.key,
        "config": config_to_dict(trial.config),
        "site": trial.site,
        "trial": trial.index,
        "seed": trial.seed,
        "rate": trial.rate,
        "max_faults": trial.max_faults,
    }


class _DatapathOracles:
    """A process's oracle cache: one golden simulation per
    configuration, shared by every trial of it."""

    def __init__(self, routes, packets, max_cycles: Optional[int],
                 backend: Optional[str]):
        self.routes = routes
        self.packets = packets
        self.max_cycles = max_cycles
        self.backend = backend
        self._oracles: Dict[str, DifferentialOracle] = {}

    def __call__(self, config: ArchitectureConfiguration
                 ) -> DifferentialOracle:
        key = config_key(config)
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = DifferentialOracle(config, self.routes, self.packets,
                                        max_cycles=self.max_cycles,
                                        backend=self.backend)
            self._oracles[key] = oracle
        return oracle


def _classify_trial(trial: SdcTrial,
                    oracles: _DatapathOracles) -> Dict[str, object]:
    """One trial -> one journal record (never raises for ReproError)."""
    oracle = oracles(trial.config)
    try:
        outcome = oracle.classify(
            seed=trial.seed, rate=trial.rate, sites=(trial.site,),
            max_faults=trial.max_faults)
    except ReproError as exc:
        return failed_record(_trial_identity(trial), type(exc).__name__,
                             str(exc))
    return {**_trial_identity(trial), "status": "ok",
            "outcome": outcome.to_dict()}


def _publish_trial(record: Dict[str, object]) -> Optional[Dict[str, object]]:
    """Trial and outcome counters shared by both sweeps; returns the
    outcome of an ``ok`` record for the caller's injection counters."""
    SDC_TRIALS.inc(status=record["status"])
    if record["status"] != "ok":
        return None
    outcome = record["outcome"]
    SDC_OUTCOMES.inc(outcome=outcome["outcome"])
    return outcome


# -- results -----------------------------------------------------------------------


def vulnerability_row(config: ArchitectureConfiguration,
                      records: Sequence[Dict[str, object]]
                      ) -> Dict[str, object]:
    """Distil one configuration's trial records into its table row."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    by_site: Dict[str, Dict[str, int]] = {}
    failed = 0
    faults_total = 0
    failure_faults: List[int] = []
    for record in records:
        if record["status"] != "ok":
            failed += 1
            continue
        outcome = record["outcome"]
        klass = outcome["outcome"]
        counts[klass] += 1
        faults = outcome["faults_injected"]
        faults_total += faults
        site = record["site"]
        site_counts = by_site.setdefault(
            site, {o: 0 for o in OUTCOMES})
        site_counts[klass] += 1
        if klass != "masked":
            failure_faults.append(faults)
    ok = sum(counts.values())
    not_masked = ok - counts["masked"]
    caught = counts["detected"] + counts["crash"] + counts["hang"]
    return {
        "table": config.table_kind,
        "config": config.label(),
        "trials": ok,
        "failed": failed,
        "outcomes": dict(counts),
        "by_site": {site: dict(site_counts)
                    for site, site_counts in sorted(by_site.items())},
        "faults_injected": faults_total,
        "sdc_rate": counts["sdc"] / ok if ok else None,
        "detection_coverage": caught / not_masked if not_masked else None,
        "mean_faults_to_failure":
            sum(failure_faults) / len(failure_faults)
            if failure_faults else None,
    }


def sum_outcomes(rows: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Per-outcome trial totals over the *rows* of a sweep result."""
    totals = {outcome: 0 for outcome in OUTCOMES}
    for row in rows:
        for outcome, count in row["outcomes"].items():
            totals[outcome] += count
    return totals


@dataclass
class SdcSweepResult:
    """Outcome of one (possibly resumed) SDC sweep."""

    records: List[Dict[str, object]]  # plan order, one per trial
    rows: List[Dict[str, object]]     # one per configuration
    sites: Tuple[str, ...]
    trials_per_site: int
    rate: float
    seed: int
    resumed: int = 0
    discarded_records: int = 0

    @property
    def outcome_totals(self) -> Dict[str, int]:
        return sum_outcomes(self.rows)

    def render(self) -> str:
        """Deterministic text artifact — byte-identical whether the
        sweep ran through, ran parallel, or was killed and resumed."""
        from repro.reporting.reliability import render_vulnerability_table
        return render_vulnerability_table(self)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view. Deliberately free of resume/journal
        bookkeeping (``resumed``, ``discarded_records`` stay on the
        object): the saved document must be byte-identical whether the
        sweep ran through, ran parallel, or was killed and resumed."""
        return {
            "sites": list(self.sites),
            "trials_per_site": self.trials_per_site,
            "rate": self.rate,
            "seed": self.seed,
            "rows": list(self.rows),
            "outcome_totals": self.outcome_totals,
            "records": list(self.records),
        }


# -- the runner --------------------------------------------------------------------


class SdcSweepRunner(JournaledSweep):
    """Journal-backed, optionally parallel SDC-sweep driver.

    *routes*/*packets* default to the same deterministic workload the
    performance evaluator uses (``generate_routes`` +
    ``worst_case_workload``), so vulnerability numbers are measured on
    exactly the workload the performance numbers were.
    """

    measure = staticmethod(_classify_trial)
    resumed_metric = SDC_RESUMED

    def __init__(self,
                 routes: Optional[Sequence[RouteEntry]] = None,
                 packets: Optional[Sequence[Tuple[int, bytes]]] = None,
                 entries: int = 20,
                 packet_batch: int = 4,
                 sites: Optional[Sequence[str]] = None,
                 trials: int = DEFAULT_TRIALS,
                 rate: float = DEFAULT_RATE,
                 seed: int = 0,
                 max_faults: Optional[int] = None,
                 max_cycles: Optional[int] = None,
                 jobs: int = 1,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 chunk_size: Optional[int] = None,
                 backend: Optional[str] = None):
        if trials < 1:
            raise CampaignError(f"trials must be >= 1, got {trials}")
        chosen = tuple(sites) if sites is not None else FAULT_SITES
        unknown = sorted(set(chosen) - set(FAULT_SITES))
        if unknown:
            raise CampaignError(
                f"unknown fault sites {unknown}; "
                f"valid sites are {sorted(FAULT_SITES)}")
        super().__init__(journal_path, resume, jobs=jobs,
                         chunk_size=chunk_size)
        self.routes = list(routes) if routes is not None \
            else generate_routes(entries)
        self.packets = list(packets) if packets is not None \
            else worst_case_workload(self.routes, packet_batch)
        self.sites = tuple(s for s in FAULT_SITES if s in chosen)
        self.trials = trials
        self.rate = rate
        self.seed = seed
        self.max_faults = max_faults
        self.max_cycles = max_cycles
        #: simulation engine, inherited by every pool worker
        self.backend = backend

    def run(self, configs: Sequence[ArchitectureConfiguration]
            ) -> SdcSweepResult:
        """Sweep every ``config x site x trial``; never raises for a
        configuration whose golden run fails (those trials are recorded
        ``failed`` and excluded from the rates)."""
        ordered = self._sweep(plan_trials(
            configs, self.sites, self.trials, self.rate, self.seed,
            self.max_faults))
        rows = []
        offset = 0
        per_config = len(self.sites) * self.trials
        for config in configs:
            rows.append(vulnerability_row(
                config, ordered[offset:offset + per_config]))
            offset += per_config
        return SdcSweepResult(
            records=ordered, rows=rows, sites=self.sites,
            trials_per_site=self.trials, rate=self.rate, seed=self.seed,
            resumed=self.resumed,
            discarded_records=self.discarded_records)

    # -- engine hooks -------------------------------------------------------------

    def _context_spec(self):
        return _DatapathOracles, (self.routes, self.packets,
                                  self.max_cycles, self.backend)

    def _failed_record(self, trial: SdcTrial, error: str,
                       message: str) -> Dict[str, object]:
        return failed_record(_trial_identity(trial), error, message)

    def _publish(self, record: Dict[str, object]) -> None:
        """Injection/outcome counters for one fresh trial record."""
        outcome = _publish_trial(record)
        if outcome is None:
            return
        for site, count in sorted(outcome["faults_by_site"].items()):
            SDC_INJECTIONS.inc(count, site=site)


# ===================================================================================
# Memory-state (table FIB) vulnerability sweep
# ===================================================================================
#
# The datapath sweep above strikes bits *in flight*; this sweep strikes
# bits *at rest* — the stored FIB of any routing structure at any scale,
# under any protection mode — using the MemoryDifferentialOracle. Same
# journal format, same resume semantics, same parent-side metrics
# discipline, same sequential == parallel == resumed byte-identity.


def memory_sites_for(kind: str) -> Tuple[str, ...]:
    """The memory sites a table kind physically has."""
    return make_table(kind, capacity=1).memory_sites()


@dataclass(frozen=True)
class MemoryTrial:
    """One scheduled table-state injection trial."""

    kind: str
    protection: str
    site: str
    index: int
    seed: int
    flips: int

    @property
    def key(self) -> str:
        """Canonical journal identity of this trial."""
        return json.dumps({
            "mode": "memory",
            "kind": self.kind,
            "protection": self.protection,
            "site": self.site,
            "trial": self.index,
            "seed": self.seed,
            "flips": self.flips,
        }, sort_keys=True, separators=(",", ":"))


def plan_memory_trials(kinds: Sequence[str], protections: Sequence[str],
                       trials: int, flips: int,
                       seed: int) -> List[MemoryTrial]:
    """Deterministic enumeration: kind-major, then protection, then
    site, then index. Seeds derive from the trial's identity, never its
    position, so adding a kind or protection re-rolls nothing."""
    plan: List[MemoryTrial] = []
    for kind in kinds:
        for protection in protections:
            for site in memory_sites_for(kind):
                for index in range(trials):
                    plan.append(MemoryTrial(
                        kind=kind, protection=protection, site=site,
                        index=index,
                        seed=derive_seed(seed, "memory", kind, protection,
                                         site, index),
                        flips=flips))
    return plan


def _memory_identity(trial: MemoryTrial) -> Dict[str, object]:
    return {
        "v": JOURNAL_VERSION,
        "key": trial.key,
        "mode": "memory",
        "kind": trial.kind,
        "protection": trial.protection,
        "site": trial.site,
        "trial": trial.index,
        "seed": trial.seed,
        "flips": trial.flips,
    }


class _MemoryOracles:
    """A process's FIB, traffic and oracle cache: the workload is built
    once per process, one clean golden build per (kind, protection)."""

    def __init__(self, prefixes: int, fib_seed: int, lookups: int,
                 traffic_seed: int):
        # Workers re-synthesize the FIB deterministically from the scalar
        # parameters instead of shipping ~N route objects per process.
        self.routes = synthesize_fib(prefixes, seed=fib_seed)
        self.addresses = zipf_addresses(self.routes, lookups,
                                        seed=traffic_seed)
        self._oracles: Dict[Tuple[str, str], MemoryDifferentialOracle] = {}

    def __call__(self, kind: str,
                 protection: str) -> MemoryDifferentialOracle:
        cell = (kind, protection)
        oracle = self._oracles.get(cell)
        if oracle is None:
            oracle = MemoryDifferentialOracle(
                kind, protection, self.routes, self.addresses)
            self._oracles[cell] = oracle
        return oracle


def _classify_memory_trial(trial: MemoryTrial,
                           oracles: _MemoryOracles) -> Dict[str, object]:
    """One trial -> one journal record (never raises for ReproError)."""
    oracle = oracles(trial.kind, trial.protection)
    try:
        outcome = oracle.classify(seed=trial.seed, site=trial.site,
                                  flips=trial.flips)
    except ReproError as exc:
        return failed_record(_memory_identity(trial), type(exc).__name__,
                             str(exc))
    return {**_memory_identity(trial), "status": "ok",
            "outcome": outcome.to_dict()}


# -- results -----------------------------------------------------------------------


def memory_vulnerability_row(kind: str, protection: str,
                             records: Sequence[Dict[str, object]],
                             protection_cost: Optional[Dict[str, object]]
                             ) -> Dict[str, object]:
    """Distil one (kind, protection) cell into its table row."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    by_site: Dict[str, Dict[str, int]] = {}
    failed = 0
    flips_total = 0
    for record in records:
        if record["status"] != "ok":
            failed += 1
            continue
        outcome = record["outcome"]
        klass = outcome["outcome"]
        counts[klass] += 1
        flips_total += outcome["faults_injected"]
        site_counts = by_site.setdefault(
            record["site"], {o: 0 for o in OUTCOMES})
        site_counts[klass] += 1
    ok = sum(counts.values())
    not_masked = ok - counts["masked"]
    caught = counts["detected"] + counts["crash"] + counts["hang"]
    return {
        "kind": kind,
        "protection": protection,
        "trials": ok,
        "failed": failed,
        "outcomes": dict(counts),
        # canonical physical order, not alphabetical, so cross-kind
        # rows list their sites the way MEMORY_SITES declares them
        "by_site": {site: dict(by_site[site])
                    for site in MEMORY_SITES if site in by_site},
        "flips_injected": flips_total,
        "sdc_rate": counts["sdc"] / ok if ok else None,
        "detection_coverage": caught / not_masked if not_masked else None,
        "protection_cost": protection_cost,
    }


@dataclass
class MemorySweepResult:
    """Outcome of one (possibly resumed) table-state sweep."""

    records: List[Dict[str, object]]  # plan order, one per trial
    rows: List[Dict[str, object]]     # one per (kind, protection) cell
    kinds: Tuple[str, ...]
    protections: Tuple[str, ...]
    trials_per_site: int
    flips: int
    seed: int
    prefix_count: int
    lookups: int
    fib_seed: int
    resumed: int = 0
    discarded_records: int = 0

    @property
    def outcome_totals(self) -> Dict[str, int]:
        return sum_outcomes(self.rows)

    def render(self) -> str:
        """Deterministic text artifact — byte-identical whether the
        sweep ran through, ran parallel, or was killed and resumed."""
        from repro.reporting.reliability import (
            render_memory_vulnerability_table,
        )
        return render_memory_vulnerability_table(self)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view, free of resume/journal bookkeeping (the
        saved document must be byte-identical whether the sweep ran
        through, ran parallel, or was killed and resumed)."""
        return {
            "mode": "memory",
            "kinds": list(self.kinds),
            "protections": list(self.protections),
            "trials_per_site": self.trials_per_site,
            "flips": self.flips,
            "seed": self.seed,
            "prefix_count": self.prefix_count,
            "lookups": self.lookups,
            "fib_seed": self.fib_seed,
            "rows": list(self.rows),
            "outcome_totals": self.outcome_totals,
            "records": list(self.records),
        }


# -- the runner --------------------------------------------------------------------


class MemorySweepRunner(JournaledSweep):
    """Journal-backed, optionally parallel table-state sweep driver."""

    measure = staticmethod(_classify_memory_trial)
    resumed_metric = SDC_RESUMED

    def __init__(self,
                 kinds: Optional[Sequence[str]] = None,
                 protections: Optional[Sequence[str]] = None,
                 prefixes: int = 1000,
                 lookups: int = DEFAULT_MEMORY_LOOKUPS,
                 trials: int = DEFAULT_TRIALS,
                 flips: int = DEFAULT_MEMORY_FLIPS,
                 seed: int = 0,
                 fib_seed: int = DEFAULT_FIB_SEED,
                 traffic_seed: int = DEFAULT_TRAFFIC_SEED,
                 jobs: int = 1,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 chunk_size: Optional[int] = None):
        if trials < 1:
            raise CampaignError(f"trials must be >= 1, got {trials}")
        if prefixes < 1:
            raise CampaignError(f"prefixes must be >= 1, got {prefixes}")
        if lookups < 1:
            raise CampaignError(f"lookups must be >= 1, got {lookups}")
        if flips < 1:
            raise CampaignError(f"flips must be >= 1, got {flips}")
        chosen_kinds = tuple(kinds) if kinds is not None \
            else tuple(TABLE_KINDS)
        unknown = sorted(set(chosen_kinds) - set(TABLE_KINDS))
        if unknown:
            raise CampaignError(
                f"unknown table kinds {unknown}; "
                f"valid kinds are {sorted(TABLE_KINDS)}")
        chosen_protections = tuple(protections) if protections is not None \
            else PROTECTION_MODES
        unknown = sorted(set(chosen_protections) - set(PROTECTION_MODES))
        if unknown:
            raise CampaignError(
                f"unknown protection modes {unknown}; "
                f"valid modes are {sorted(PROTECTION_MODES)}")
        super().__init__(journal_path, resume, jobs=jobs,
                         chunk_size=chunk_size)
        self.kinds = tuple(k for k in TABLE_KINDS if k in chosen_kinds)
        self.protections = tuple(p for p in PROTECTION_MODES
                                 if p in chosen_protections)
        self.prefixes = prefixes
        self.lookups = lookups
        self.trials = trials
        self.flips = flips
        self.seed = seed
        self.fib_seed = fib_seed
        self.traffic_seed = traffic_seed

    def run(self) -> MemorySweepResult:
        """Sweep every ``kind x protection x site x trial``."""
        ordered = self._sweep(plan_memory_trials(
            self.kinds, self.protections, self.trials, self.flips,
            self.seed))
        rows = []
        offset = 0
        for kind in self.kinds:
            per_cell = len(memory_sites_for(kind)) * self.trials
            for protection in self.protections:
                rows.append(memory_vulnerability_row(
                    kind, protection,
                    ordered[offset:offset + per_cell],
                    self._protection_cost(kind, protection)))
                offset += per_cell
        return MemorySweepResult(
            records=ordered, rows=rows, kinds=self.kinds,
            protections=self.protections, trials_per_site=self.trials,
            flips=self.flips, seed=self.seed, prefix_count=self.prefixes,
            lookups=self.lookups, fib_seed=self.fib_seed,
            resumed=self.resumed,
            discarded_records=self.discarded_records)

    def _protection_cost(self, kind: str,
                         protection: str) -> Dict[str, object]:
        """Table-1-style pricing of the cell's protection hardware,
        measured on the clean golden build (deterministic, so rows are
        byte-identical across sequential/parallel/resumed runs)."""
        oracle = self._local_context()(kind, protection)
        _ = oracle.golden
        return estimate_protection_overhead(
            kind, protection, self.prefixes,
            oracle.mean_lookup_steps, oracle.table_memory_bytes,
            oracle.protected_records if protection != "none" else 0)

    # -- engine hooks -------------------------------------------------------------

    def _context_spec(self):
        return _MemoryOracles, (self.prefixes, self.fib_seed, self.lookups,
                                self.traffic_seed)

    def _failed_record(self, trial: MemoryTrial, error: str,
                       message: str) -> Dict[str, object]:
        return failed_record(_memory_identity(trial), error, message)

    def _publish(self, record: Dict[str, object]) -> None:
        """Parent-side, persist-time-only metrics (same discipline as
        the datapath sweep: resumed trials never double-count)."""
        outcome = _publish_trial(record)
        if outcome is None:
            return
        for site, count in sorted(outcome["faults_by_site"].items()):
            SDC_MEMORY_INJECTIONS.inc(count, memory_site=site,
                                      protection=record["protection"])


def run_memory_sweep(**kwargs) -> MemorySweepResult:
    """One-shot convenience over :class:`MemorySweepRunner`."""
    return MemorySweepRunner(**kwargs).run()
