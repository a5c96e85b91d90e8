"""SDC-sweep campaigns: soft-error vulnerability across a design space.

The reliability counterpart of the performance sweeps, in two fault
domains. The datapath sweep strikes bits *in flight* (TTA buses, FU
latches, socket decodes) of every architecture configuration and asks
the :class:`~repro.verify.DifferentialOracle`; the memory sweep strikes
bits *at rest* in the stored FIB of every (table kind, protection) cell
and asks the :class:`~repro.verify.MemoryDifferentialOracle`. Each
seeded trial (one per ``(cell, site, trial index)``) is classified
against its fault-free golden run, and each cell's trials are distilled
into one vulnerability row: SDC rate, detection coverage, and the
fields only that sweep reports.

The two sweeps share one skeleton and differ only in the oracle a trial
asks and the few row fields each alone reports:

* **trials** — a trial's journal ``key`` and its record identity are
  built from one field dict, and one :func:`_classify` turns a trial
  into its record, containing any :class:`~repro.errors.ReproError` as a
  ``failed`` record;
* **tally** — one :func:`_tally` counts outcomes, failures and per-site
  histograms and derives the two rates for both row kinds;
* **engine** — both run on the shared
  :class:`~repro.dse.sweep.JournaledSweep`: an fsync'd JSONL journal, so
  a killed sweep resumes without repeating a simulation and its
  ``--output`` is byte-identical; a process pool whose workers build
  their oracle cache once (the memory sweep hands them the clean
  builds its parent made), persisting records in plan order, so the
  journal is byte-identical to a sequential run's; and a
  worker that dies leaves its trials to be re-probed one at a time, a
  trial that kills its prober too being recorded failed with
  ``WorkerCrashError``;
* **determinism** — trial seeds derive from
  :func:`~repro.faults.seeds.derive_seed` over the trial's identity, so
  results do not depend on job count, completion order, or which trials
  were resumed from the journal;
* **observability** — trial, outcome and injection counters are
  published in the parent at persist time only, so sequential, parallel
  and resumed sweeps account identically.
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
from repro.routing.protected import PROTECTION_MODES
from repro.verify.oracle import (
    OUTCOMES,
    CleanBuild,
    DifferentialOracle,
    MemoryDifferentialOracle,
    TrialOutcome,
)
from repro.workload import generate_routes, worst_case_workload
from repro.workload.fib import synthesize_fib, zipf_addresses

DEFAULT_FIB_SEED = 2026
DEFAULT_TRAFFIC_SEED = 77


# -- the shared skeleton -----------------------------------------------------------


class _Trial:
    """A scheduled injection trial: its journal key and its record
    identity are built from one dict of fields."""

    def _fields(self) -> Dict[str, object]:
        raise NotImplementedError

    @property
    def key(self) -> str:
        """Canonical journal identity of this trial."""
        return json.dumps(self._fields(), sort_keys=True,
                          separators=(",", ":"))

    def identity(self) -> Dict[str, object]:
        """The fields every record of this trial carries."""
        return {"v": JOURNAL_VERSION, "key": self.key, **self._fields()}

    def outcome(self, oracles) -> TrialOutcome:
        """Run this trial on the oracle its sweep's cache holds for it."""
        raise NotImplementedError


def _classify(trial: _Trial, oracles) -> Dict[str, object]:
    """One trial -> one journal record (never raises for ReproError)."""
    try:
        outcome = trial.outcome(oracles)
    except ReproError as exc:
        return failed_record(trial.identity(), type(exc).__name__,
                             str(exc))
    return {**trial.identity(), "status": "ok",
            "outcome": outcome.to_dict()}


def _tally(records: Sequence[Dict[str, object]],
           sites: Sequence[str]) -> Dict[str, object]:
    """The row fields both sweeps share: outcome counts over the ``ok``
    records, per-site histograms in *sites* order, the ``failed`` count
    and the two derived rates."""
    counts = dict.fromkeys(OUTCOMES, 0)
    by_site: Dict[str, Dict[str, int]] = {}
    failed = 0
    for record in records:
        if record["status"] != "ok":
            failed += 1
            continue
        klass = record["outcome"]["outcome"]
        counts[klass] += 1
        by_site.setdefault(record["site"],
                           dict.fromkeys(OUTCOMES, 0))[klass] += 1
    ok = sum(counts.values())
    not_masked = ok - counts["masked"]
    caught = counts["detected"] + counts["crash"] + counts["hang"]
    return {
        "trials": ok,
        "failed": failed,
        "outcomes": counts,
        "by_site": {site: by_site[site] for site in sites
                    if site in by_site},
        "sdc_rate": counts["sdc"] / ok if ok else None,
        "detection_coverage": caught / not_masked if not_masked else None,
    }


def _ok_outcomes(records: Sequence[Dict[str, object]]
                 ) -> List[Dict[str, object]]:
    return [record["outcome"] for record in records
            if record["status"] == "ok"]


def sum_outcomes(rows: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Per-outcome trial totals over the *rows* of a sweep result."""
    totals = dict.fromkeys(OUTCOMES, 0)
    for row in rows:
        for outcome, count in row["outcomes"].items():
            totals[outcome] += count
    return totals


class _TrialSweep(JournaledSweep):
    """The engine hooks both sweeps share; a runner adds its plan, its
    oracle cache and the counter its strikes are published under."""

    measure = staticmethod(_classify)
    resumed_metric = SDC_RESUMED

    def _failed_record(self, trial: _Trial, error: str,
                       message: str) -> Dict[str, object]:
        return failed_record(trial.identity(), error, message)

    def _publish(self, record: Dict[str, object]) -> None:
        """Trial, outcome and injection counters for one fresh record."""
        SDC_TRIALS.inc(status=record["status"])
        if record["status"] != "ok":
            return
        outcome = record["outcome"]
        SDC_OUTCOMES.inc(outcome=outcome["outcome"])
        for site, count in sorted(outcome["faults_by_site"].items()):
            self._count_injections(record, site, count)

    def _count_injections(self, record: Dict[str, object], site: str,
                          count: int) -> None:
        raise NotImplementedError


# ===================================================================================
# Datapath vulnerability sweep
# ===================================================================================


@dataclass(frozen=True)
class SdcTrial(_Trial):
    """One scheduled datapath injection trial."""

    config: ArchitectureConfiguration
    site: str
    index: int
    seed: int
    rate: float
    max_faults: Optional[int]

    def _fields(self) -> Dict[str, object]:
        return {"config": config_key(self.config), "site": self.site,
                "trial": self.index, "seed": self.seed, "rate": self.rate,
                "max_faults": self.max_faults}

    def identity(self) -> Dict[str, object]:
        # the record spells the configuration out; the key names it
        return {**super().identity(),
                "config": config_to_dict(self.config)}

    def outcome(self, oracles: _DatapathOracles) -> TrialOutcome:
        return oracles(self.config).classify(
            seed=self.seed, rate=self.rate, sites=(self.site,),
            max_faults=self.max_faults)


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


class _DatapathOracles:
    """A process's oracle cache: one golden simulation per
    configuration, shared by every trial of it."""

    def __init__(self, routes, packets):
        self.routes = routes
        self.packets = packets
        self._oracles: Dict[str, DifferentialOracle] = {}

    def __call__(self, config: ArchitectureConfiguration
                 ) -> DifferentialOracle:
        key = config_key(config)
        oracle = self._oracles.get(key)
        if oracle is None:
            oracle = DifferentialOracle(config, self.routes, self.packets)
            self._oracles[key] = oracle
        return oracle


def vulnerability_row(config: ArchitectureConfiguration,
                      records: Sequence[Dict[str, object]]
                      ) -> Dict[str, object]:
    """Distil one configuration's trial records into its table row."""
    outcomes = _ok_outcomes(records)
    failure_faults = [outcome["faults_injected"] for outcome in outcomes
                      if outcome["outcome"] != "masked"]
    return {
        "table": config.table_kind,
        "config": config.label(),
        **_tally(records, FAULT_SITES),
        "faults_injected": sum(outcome["faults_injected"]
                               for outcome in outcomes),
        "mean_faults_to_failure":
            sum(failure_faults) / len(failure_faults)
            if failure_faults else None,
    }


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


class SdcSweepRunner(_TrialSweep):
    """Journal-backed, optionally parallel datapath SDC-sweep driver.

    Trials run on the same deterministic workload the performance
    evaluator uses (``generate_routes(entries)`` +
    ``worst_case_workload``), so vulnerability numbers are measured on
    exactly the workload the performance numbers were. Every trial
    attaches the hazard detector and the fault injector as simulator
    hooks, so it runs on the interpreter.
    """

    def __init__(self,
                 entries: int = 20,
                 packet_batch: int = 4,
                 sites: Optional[Sequence[str]] = None,
                 trials: int = DEFAULT_TRIALS,
                 rate: float = DEFAULT_RATE,
                 seed: int = 0,
                 max_faults: Optional[int] = None,
                 jobs: int = 1,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 chunk_size: Optional[int] = None):
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
        self.routes = generate_routes(entries)
        self.packets = worst_case_workload(self.routes, packet_batch)
        self.sites = tuple(s for s in FAULT_SITES if s in chosen)
        self.trials = trials
        self.rate = rate
        self.seed = seed
        self.max_faults = max_faults

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
        return _DatapathOracles, (self.routes, self.packets)

    def _count_injections(self, record: Dict[str, object], site: str,
                          count: int) -> None:
        SDC_INJECTIONS.inc(count, site=site)


# ===================================================================================
# Memory-state (stored FIB) vulnerability sweep
# ===================================================================================


def memory_sites_for(kind: str) -> Tuple[str, ...]:
    """The memory sites a table kind physically has."""
    return make_table(kind, capacity=1).memory_sites()


@dataclass(frozen=True)
class MemoryTrial(_Trial):
    """One scheduled table-state injection trial."""

    kind: str
    protection: str
    site: str
    index: int
    seed: int
    flips: int

    def _fields(self) -> Dict[str, object]:
        return {"mode": "memory", "kind": self.kind,
                "protection": self.protection, "site": self.site,
                "trial": self.index, "seed": self.seed,
                "flips": self.flips}

    def outcome(self, oracles: _MemoryOracles) -> TrialOutcome:
        return oracles(self.kind, self.protection).classify(
            seed=self.seed, site=self.site, flips=self.flips)


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


class _MemoryOracles:
    """A process's oracle cache over the sweep's clean builds, one per
    kind: each (kind, protection) oracle is its kind's build under that
    protection. The parent makes the builds before any pool starts and
    hands them to every worker, so no worker re-synthesizes the FIB and
    the traffic or builds a clean table."""

    def __init__(self, builds: Dict[str, CleanBuild]):
        self.builds = builds
        self._oracles: Dict[Tuple[str, str], MemoryDifferentialOracle] = {}

    def __call__(self, kind: str,
                 protection: str) -> MemoryDifferentialOracle:
        cell = (kind, protection)
        oracle = self._oracles.get(cell)
        if oracle is None:
            oracle = MemoryDifferentialOracle.over(self.builds[kind],
                                                   protection)
            self._oracles[cell] = oracle
        return oracle


def memory_vulnerability_row(kind: str, protection: str,
                             records: Sequence[Dict[str, object]],
                             protection_cost: Optional[Dict[str, object]]
                             ) -> Dict[str, object]:
    """Distil one (kind, protection) cell into its table row."""
    return {
        "kind": kind,
        "protection": protection,
        **_tally(records, MEMORY_SITES),
        "flips_injected": sum(outcome["faults_injected"]
                              for outcome in _ok_outcomes(records)),
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


class MemorySweepRunner(_TrialSweep):
    """Journal-backed, optionally parallel table-state sweep driver.

    Every trial replays the same ``lookups`` Zipf probe addresses, drawn
    with :data:`DEFAULT_TRAFFIC_SEED` from a ``prefixes``-route FIB
    synthesized with ``fib_seed``.
    """

    def __init__(self,
                 kinds: Optional[Sequence[str]] = None,
                 protections: Optional[Sequence[str]] = None,
                 prefixes: int = 1000,
                 lookups: int = DEFAULT_MEMORY_LOOKUPS,
                 trials: int = DEFAULT_TRIALS,
                 flips: int = DEFAULT_MEMORY_FLIPS,
                 seed: int = 0,
                 fib_seed: int = DEFAULT_FIB_SEED,
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
        #: each kind's clean build, made by :meth:`run`
        self._builds: Dict[str, CleanBuild] = {}

    def run(self) -> MemorySweepResult:
        """Sweep every ``kind x protection x site x trial``."""
        # the clean work of each kind, done here once for the trials of
        # every process and for the pricing below
        routes = synthesize_fib(self.prefixes, seed=self.fib_seed)
        addresses = zipf_addresses(routes, self.lookups,
                                   seed=DEFAULT_TRAFFIC_SEED)
        self._builds = {kind: CleanBuild(kind, routes, addresses)
                        for kind in self.kinds}
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
        measured on the kind's clean build (deterministic, so rows are
        byte-identical across sequential/parallel/resumed runs; a clean
        table's steps, footprint and records do not depend on its
        protection)."""
        build = self._builds[kind]
        return estimate_protection_overhead(
            kind, protection, self.prefixes,
            build.mean_lookup_steps, build.table_memory_bytes,
            build.protected_records if protection != "none" else 0)

    # -- engine hooks -------------------------------------------------------------

    def _context_spec(self):
        # under fork a worker inherits the builds; under spawn they are
        # pickled once per worker
        return _MemoryOracles, (self._builds,)

    def _count_injections(self, record: Dict[str, object], site: str,
                          count: int) -> None:
        SDC_MEMORY_INJECTIONS.inc(count, memory_site=site,
                                  protection=record["protection"])
