"""Differential self-checking oracle for datapath fault campaigns.

A single soft error can end five ways, and telling them apart is the
whole point of an SDC study:

* ``masked``   — the run is bit-identical to the fault-free golden run;
  the flipped bit was dead, overwritten, or logically absorbed;
* ``detected`` — the run completed but the hazard detector flagged
  anomalies the golden run did not have: the fault left an
  architecturally visible trace a checker could have caught;
* ``sdc``      — *silent data corruption*: the run completed with no
  error, no new hazard, nothing — but its forwarded datagrams or
  execution profile diverge from the golden run. Only a differential
  comparison can see this class;
* ``crash``    — the simulation raised (premature result read,
  functional model error...): fail-stop behaviour;
* ``hang``     — the run blew a cycle budget sized from the golden
  run's own cycle count; the watchdog's loop diagnosis is preserved.

Classification precedence is ``hang``/``crash`` (the run never
completed) over ``detected`` over ``sdc`` over ``masked``, and the five
classes are exhaustive: every trial lands in exactly one.

The oracle runs the golden reference once per configuration and replays
it under injection as many times as the sweep asks, so a thousand-trial
campaign pays for exactly one fault-free simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.config import ArchitectureConfiguration
from repro.errors import CycleBudgetError, ReproError
from repro.faults.datapath import DatapathFaultInjector
from repro.faults.memory import MemoryFaultInjector
from repro.ipv6.address import Ipv6Address
from repro.programs.runner import (
    ForwardingRunResult,
    RunOptions,
    run_forwarding,
)
from repro.routing import make_table
from repro.routing.entry import RouteEntry
from repro.routing.protected import ProtectedRoutingTable

OUTCOME_MASKED = "masked"
OUTCOME_DETECTED = "detected"
OUTCOME_SDC = "sdc"
OUTCOME_CRASH = "crash"
OUTCOME_HANG = "hang"

#: every classification the oracle can emit, in severity order
OUTCOMES: Tuple[str, ...] = (
    OUTCOME_MASKED, OUTCOME_DETECTED, OUTCOME_SDC,
    OUTCOME_CRASH, OUTCOME_HANG,
)

#: a faulted run gets this many times the golden run's cycles before it
#: is declared hung (faults legitimately lengthen loops a little)
HANG_BUDGET_MULTIPLIER = 4

#: floor so tiny golden runs still get enough rope to diverge honestly
MIN_HANG_BUDGET = 50_000


@dataclass
class TrialOutcome:
    """One classified injection trial."""

    outcome: str
    detail: str
    faults_injected: int
    transports_observed: int
    faults_by_site: Dict[str, int] = field(default_factory=dict)
    faults: List[Dict[str, object]] = field(default_factory=list)
    new_hazards: Dict[str, int] = field(default_factory=dict)
    cycles: Optional[int] = None
    diagnosis: Optional[str] = None
    error_type: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "outcome": self.outcome,
            "detail": self.detail,
            "faults_injected": self.faults_injected,
            "transports_observed": self.transports_observed,
            "faults_by_site": dict(sorted(self.faults_by_site.items())),
            "faults": list(self.faults),
            "new_hazards": dict(sorted(self.new_hazards.items())),
            "cycles": self.cycles,
            "diagnosis": self.diagnosis,
            "error_type": self.error_type,
        }


def _trial_outcome(injector, outcome: str, detail: str,
                   **fields) -> TrialOutcome:
    """One classified trial, its fault counts read from *injector*'s own
    statistics (a memory injector observes no transports)."""
    stats = injector.stats()
    return TrialOutcome(
        outcome=outcome, detail=detail,
        faults_injected=stats["faults_injected"],
        transports_observed=stats.get("transports_observed", 0),
        faults_by_site=stats["faults_by_site"], faults=stats["faults"],
        **fields)


def _forwarding_signature(result: ForwardingRunResult) -> Dict[str, object]:
    """Everything that must match for two runs to count as identical."""
    machine = result.machine
    cards = {str(card.index): sorted(card.transmitted)
             for card in machine.line_cards} if machine is not None else {}
    report = result.report
    return {
        "cards": cards,
        "cycles": report.cycles,
        "moves_executed": report.moves_executed,
        "instructions_fetched": report.instructions_fetched,
    }


def _diff_signatures(golden: Dict[str, object],
                     faulted: Dict[str, object]) -> List[str]:
    """Human-readable list of divergences (empty = identical)."""
    diffs: List[str] = []
    gcards: Dict[str, list] = golden["cards"]  # type: ignore[assignment]
    fcards: Dict[str, list] = faulted["cards"]  # type: ignore[assignment]
    for index in sorted(set(gcards) | set(fcards)):
        expected = gcards.get(index, [])
        actual = fcards.get(index, [])
        if expected != actual:
            detail = (f"{len(expected)} vs {len(actual)} datagrams"
                      if len(expected) != len(actual)
                      else "content differs")
            diffs.append(f"card {index}: {detail}")
    for scalar in ("cycles", "moves_executed", "instructions_fetched"):
        if golden[scalar] != faulted[scalar]:
            diffs.append(
                f"{scalar}: {golden[scalar]} vs {faulted[scalar]}")
    return diffs


class DifferentialOracle:
    """Classifies injection trials against one cached golden run.

    One oracle is bound to one ``(config, routes, packets)`` workload;
    parallel sweep workers keep a per-process cache keyed by config.
    """

    def __init__(self, config: ArchitectureConfiguration,
                 routes: Sequence[RouteEntry],
                 packets: Sequence[Tuple[int, bytes]],
                 max_cycles: Optional[int] = None):
        self.config = config
        self.routes = list(routes)
        self.packets = list(packets)
        self._max_cycles = max_cycles
        self._golden: Optional[ForwardingRunResult] = None
        self._golden_error: Optional[BaseException] = None
        self._golden_signature: Optional[Dict[str, object]] = None
        self._hazard_baseline: Dict[str, int] = {}

    # -- golden reference ---------------------------------------------------------

    @property
    def golden(self) -> ForwardingRunResult:
        """The fault-free reference run (computed once, then cached).

        A failing golden run is cached too: a configuration that cannot
        even run fault-free is quarantined after one simulation, not
        re-simulated for every trial a sweep throws at it.
        """
        if self._golden_error is not None:
            raise self._golden_error
        if self._golden is None:
            try:
                result = run_forwarding(
                    self.config, self.routes, self.packets,
                    options=RunOptions(verify=True, detect_hazards=True))
            except ReproError as exc:
                self._golden_error = exc
                raise
            if not result.correct:
                self._golden_error = ReproError(
                    "golden run disagrees with the functional model; "
                    "refusing to use it as an oracle reference: "
                    + "; ".join(result.mismatches))
                raise self._golden_error
            self._golden = result
            self._golden_signature = _forwarding_signature(result)
            self._hazard_baseline = dict(result.report.hazards)
        return self._golden

    @property
    def hang_budget(self) -> int:
        """Cycle budget for faulted runs, sized from the golden run."""
        if self._max_cycles is not None:
            return self._max_cycles
        return max(self.golden.report.cycles * HANG_BUDGET_MULTIPLIER,
                   MIN_HANG_BUDGET)

    # -- classification -----------------------------------------------------------

    def classify(self, seed: int, rate: float,
                 sites: Optional[Sequence[str]] = None,
                 max_faults: Optional[int] = None) -> TrialOutcome:
        """Run one injection trial and classify its outcome.

        Deterministic: the same ``(workload, seed, rate, sites,
        max_faults)`` always produces the identical outcome record.
        """
        golden_signature = self._golden_signature
        if golden_signature is None:
            _ = self.golden
            golden_signature = self._golden_signature
        injector = DatapathFaultInjector(
            seed=seed, rate=rate, sites=sites, max_faults=max_faults)
        try:
            result = run_forwarding(
                self.config, self.routes, self.packets,
                options=RunOptions(max_cycles=self.hang_budget,
                                   verify=False, detect_hazards=True,
                                   instrument=injector.attach))
        except CycleBudgetError as exc:
            return _trial_outcome(
                injector, OUTCOME_HANG,
                f"cycle budget of {exc.cycles} exhausted at pc={exc.pc}",
                diagnosis=exc.diagnosis)
        except Exception as exc:  # noqa: BLE001 — any escape is a crash
            return _trial_outcome(
                injector, OUTCOME_CRASH, str(exc),
                error_type=type(exc).__name__)

        new_hazards = {}
        for kind, count in result.report.hazards.items():
            delta = count - self._hazard_baseline.get(kind, 0)
            if delta > 0:
                new_hazards[kind] = delta
        if new_hazards:
            kinds = ", ".join(f"{kind} x{count}" for kind, count
                              in sorted(new_hazards.items()))
            return _trial_outcome(
                injector, OUTCOME_DETECTED,
                f"hazard detector flagged: {kinds}",
                cycles=result.report.cycles, new_hazards=new_hazards)

        diffs = _diff_signatures(golden_signature,
                                 _forwarding_signature(result))
        if diffs:
            return _trial_outcome(
                injector, OUTCOME_SDC,
                "silent divergence: " + "; ".join(diffs),
                cycles=result.report.cycles)
        return _trial_outcome(
            injector, OUTCOME_MASKED,
            "identical to the golden run",
            cycles=result.report.cycles)


#: floor for the per-trial lookup-step budget of the memory oracle
MIN_MEMORY_STEP_BUDGET = 10_000


class MemoryDifferentialOracle:
    """Classifies table-state injection trials against a clean table.

    The same five-way vocabulary as :class:`DifferentialOracle`, but
    the system under test is a (possibly protected) routing structure
    serving a lookup workload rather than the TTA datapath:

    * ``masked``   — every lookup answered exactly as the clean table;
    * ``detected`` — the protection layer reported the corruption:
      a live detection during lookups (hit-word mismatch, intercepted
      false miss, fail-stop converted to degraded service) or a scrub
      finding from :meth:`ProtectedRoutingTable.verify_integrity`;
    * ``sdc``      — no detection, but at least one lookup silently
      answered differently: the FIB lied and nothing noticed;
    * ``crash``    — a lookup raised out of the table (fail-stop,
      reachable only on unprotected tables — the wrapper converts
      these to detections);
    * ``hang``     — the run blew a lookup-step budget sized from the
      clean run (structure bounds make this a backstop class).

    One oracle is bound to one ``(kind, protection, routes,
    addresses)`` cell; the golden signatures are computed once on a
    clean build, then every trial corrupts a
    :meth:`~ProtectedRoutingTable.replica` of it, so the cell's clean
    work (route words, scrub baseline) is done once.
    """

    def __init__(self, kind: str, protection: str,
                 routes: Sequence[RouteEntry],
                 addresses: Sequence[Ipv6Address]):
        self.kind = kind
        self.protection = protection
        self.routes = list(routes)
        self.addresses = list(addresses)
        #: every distinct prefix fits, with room to spare
        self.capacity = len({entry.prefix for entry in self.routes}) + 8
        self._golden_signatures: Optional[List[Tuple[object, ...]]] = None
        self._golden_steps = 0
        #: the clean, checkpointed build the golden run answered from
        self._clean: Optional[ProtectedRoutingTable] = None
        #: measured on the clean golden build (overhead-pricing inputs)
        self.table_memory_bytes = 0
        self.protected_records = 0

    def build(self) -> ProtectedRoutingTable:
        """A fresh protected table loaded with the cell's FIB."""
        inner = make_table(self.kind, capacity=self.capacity)
        table = ProtectedRoutingTable(inner, protection=self.protection)
        table.load(self.routes)
        table.checkpoint()
        return table

    @staticmethod
    def _signature(result) -> Tuple[object, ...]:
        """What must match for a lookup to count as identical: the
        forwarding decision (steps are a cost, not a semantic)."""
        if result is None:
            return ("miss",)
        entry = result.entry
        return ("hit", entry.next_hop.value, entry.interface,
                entry.prefix.network.value, entry.prefix.length)

    @property
    def golden(self) -> List[Tuple[object, ...]]:
        """Per-address signatures of the clean table (computed once)."""
        if self._golden_signatures is None:
            table = self.build()
            start = table.stats.total_lookup_steps
            self._golden_signatures = [
                self._signature(table.lookup(address))
                for address in self.addresses]
            self._golden_steps = table.stats.total_lookup_steps - start
            self.table_memory_bytes = table.table_memory_bytes()
            self.protected_records = table.protected_records()
            self._clean = table
        return self._golden_signatures

    @property
    def mean_lookup_steps(self) -> float:
        _ = self.golden
        return (self._golden_steps / len(self.addresses)
                if self.addresses else 0.0)

    @property
    def step_budget(self) -> int:
        """Lookup-step budget per trial. Degraded (journal-served)
        lookups legitimately cost ``len(routes)`` steps each, so the
        budget provisions for a fully degraded run; only a true
        runaway exceeds it."""
        _ = self.golden
        degraded_worst = 2 * len(self.addresses) * (len(self.routes) + 16)
        return max(self._golden_steps * HANG_BUDGET_MULTIPLIER
                   + degraded_worst, MIN_MEMORY_STEP_BUDGET)

    def classify(self, seed: int, site: str, flips: int = 1) -> TrialOutcome:
        """Corrupt a replica of the clean table and classify the outcome.

        Deterministic: the same ``(cell, seed, site, flips)`` always
        produces the identical outcome record.
        """
        golden = self.golden
        table = self._clean.replica()
        injector = MemoryFaultInjector(seed=seed, sites=(site,))
        faults = injector.inject(table, flips=flips)
        detected_before = table.detected_corruptions
        budget = self.step_budget
        start_steps = table.stats.total_lookup_steps
        signatures: List[Tuple[object, ...]] = []
        try:
            for address in self.addresses:
                signatures.append(self._signature(table.lookup(address)))
                if table.stats.total_lookup_steps - start_steps > budget:
                    return _trial_outcome(
                        injector, OUTCOME_HANG,
                        f"lookup-step budget of {budget} exhausted "
                        f"after {len(signatures)} lookups",
                        cycles=table.stats.total_lookup_steps - start_steps)
        except Exception as exc:  # noqa: BLE001 — any escape is a crash
            return _trial_outcome(
                injector, OUTCOME_CRASH, str(exc),
                error_type=type(exc).__name__)
        steps = table.stats.total_lookup_steps - start_steps
        live = table.detected_corruptions - detected_before
        scrub = table.verify_integrity()
        if live or scrub:
            parts = []
            if live:
                parts.append(f"{live} live detection(s) "
                             f"({table.degraded_lookups} degraded lookups)")
            if scrub:
                parts.append(f"scrub flagged {len(scrub)} record(s) at "
                             + ", ".join(sorted({e.site for e in scrub})))
            return _trial_outcome(
                injector, OUTCOME_DETECTED, "; ".join(parts), cycles=steps,
                new_hazards={"live_detections": live,
                             "scrub_events": len(scrub)})
        diffs = sum(1 for got, want in zip(signatures, golden)
                    if got != want)
        if diffs:
            return _trial_outcome(
                injector, OUTCOME_SDC,
                f"silent divergence on {diffs}/{len(golden)} lookups",
                cycles=steps)
        detail = ("identical to the clean table"
                  if faults else "no eligible record to strike")
        return _trial_outcome(injector, OUTCOME_MASKED, detail, cycles=steps)
