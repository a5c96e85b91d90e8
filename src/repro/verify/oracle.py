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
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.dse.config import ArchitectureConfiguration
from repro.errors import CycleBudgetError, ReproError
from repro.faults.datapath import DatapathFaultInjector
from repro.faults.memory import MemoryFault, MemoryFaultInjector
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


def _lookup_signature(result) -> Tuple[object, ...]:
    """What must match for a lookup to count as identical: the
    forwarding decision (steps are a cost, not a semantic)."""
    if result is None:
        return ("miss",)
    entry = result.entry
    return ("hit", entry.next_hop.value, entry.interface,
            entry.prefix.network.value, entry.prefix.length)


class CleanBuild:
    """The clean work of one table kind, done once for every protection.

    One load of the FIB and one checkpoint (its image and its scrub
    baseline), then one golden replay of the lookups: their signatures,
    their steps and their raw ``(entry, steps)`` pairs, misses included.
    A recording pass over the same clean table, which publishes
    nothing, maps each record a lookup read to the positions of the
    lookups that read it (:meth:`~RoutingTable.lookup_reads`), so a
    trial replays only the lookups its strike can reach
    (:meth:`reached`). The footprint and the protected records, the
    inputs that price a protection, are read off the same build. None
    of it depends on the protection: a :class:`MemoryDifferentialOracle`
    takes the build's table :meth:`~ProtectedRoutingTable.under` its
    own, and a sweep builds each kind once and hands the builds to
    every process.
    """

    def __init__(self, kind: str, routes: Sequence[RouteEntry],
                 addresses: Sequence[Ipv6Address]):
        self.kind = kind
        self.routes = list(routes)
        self.addresses = list(addresses)
        #: every distinct prefix fits, with room to spare
        capacity = len({entry.prefix for entry in self.routes}) + 8
        # built under checksum, whose checkpoint reads the scrub
        # baseline every protected view shares
        self.table = ProtectedRoutingTable(
            make_table(kind, capacity=capacity), protection="checksum")
        self.table.load(self.routes)
        self.table.checkpoint()
        results, self.golden_steps = self.table.lookup_within(
            self.addresses)
        #: per-address signatures of the golden lookups
        self.golden = [_lookup_signature(result) for result in results]
        #: the raw ``(entry, steps)`` of each golden lookup
        self.golden_pairs: List[Tuple[Optional[RouteEntry], int]] = []
        #: read key -> positions of the golden lookups that read it
        self._readers: Dict[Hashable, Tuple[int, ...]] = {}
        readers = self._readers
        for position, address in enumerate(self.addresses):
            entry, steps, reads = self.table.lookup_reads(address)
            self.golden_pairs.append((entry, steps))
            for read in reads:
                positions = readers.get(read, ())
                if not positions or positions[-1] != position:
                    readers[read] = positions + (position,)
        self.table_memory_bytes = self.table.table_memory_bytes()
        self.protected_records = self.table.protected_records()

    def reached(self, faults: Sequence[MemoryFault]) -> Optional[Set[int]]:
        """The positions of the lookups whose answers *faults* can
        change: those that read the struck record, and those whose
        address its new content captures. None (every position) for
        more than one strike, which can reorder a site's records."""
        if len(faults) > 1:
            return None
        reached: Set[int] = set()
        for fault in faults:  # none, or the one strike
            keys, captures = self.table.strike_reads(
                fault.site, fault.index, fault.bit)
            for key in keys:
                reached.update(self._readers.get(key, ()))
            if captures is not None:
                reached.update(
                    position
                    for position, address in enumerate(self.addresses)
                    if captures(address.value))
        return reached

    @property
    def mean_lookup_steps(self) -> float:
        return (self.golden_steps / len(self.addresses)
                if self.addresses else 0.0)

    @property
    def step_budget(self) -> int:
        """Lookup-step budget per trial. Degraded (journal-served)
        lookups legitimately cost ``len(routes)`` steps each, so the
        budget provisions for a fully degraded run; only a true
        runaway exceeds it."""
        degraded_worst = 2 * len(self.addresses) * (len(self.routes) + 16)
        return max(self.golden_steps * HANG_BUDGET_MULTIPLIER
                   + degraded_worst, MIN_MEMORY_STEP_BUDGET)


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
    addresses)`` cell. Its clean state is a :class:`CleanBuild` of the
    kind under the cell's protection: the build's structure, image,
    scrub baseline and golden replay, with the protection's own route
    words. A standalone oracle makes its own build on first use;
    :meth:`over` shares one build among the cells of a kind. Every
    trial corrupts a :meth:`~ProtectedRoutingTable.replica` of that
    clean state.
    """

    def __init__(self, kind: str, protection: str,
                 routes: Sequence[RouteEntry],
                 addresses: Sequence[Ipv6Address]):
        self.kind = kind
        self.protection = protection
        self.routes = list(routes)
        self.addresses = list(addresses)
        self._build: Optional[CleanBuild] = None
        #: the clean, checkpointed table a trial replicates
        self._clean: Optional[ProtectedRoutingTable] = None

    @classmethod
    def over(cls, build: CleanBuild,
             protection: str) -> "MemoryDifferentialOracle":
        """The oracle of *build*'s kind under *protection*, sharing the
        build's clean work."""
        oracle = cls(build.kind, protection, build.routes, build.addresses)
        oracle._build = build
        return oracle

    @property
    def build(self) -> CleanBuild:
        """The kind's clean build (made on first use)."""
        if self._build is None:
            self._build = CleanBuild(self.kind, self.routes, self.addresses)
        return self._build

    @property
    def clean(self) -> ProtectedRoutingTable:
        """The build under this cell's protection (taken on first use)."""
        if self._clean is None:
            self._clean = self.build.table.under(self.protection)
        return self._clean

    @property
    def step_budget(self) -> int:
        return self.build.step_budget

    def classify(self, seed: int, site: str, flips: int = 1) -> TrialOutcome:
        """Corrupt a replica of the clean table and classify the outcome.

        The replay looks up only the positions the strike can reach
        (:meth:`CleanBuild.reached`), every position after a live
        detection, and every position of a trial of more than one
        strike; the rest take their golden answers. The outcome record,
        the replica's ``stats`` and the published counters are those of
        a full replay.

        Deterministic: the same ``(cell, seed, site, flips)`` always
        produces the identical outcome record.
        """
        build = self.build
        table = self.clean.replica()
        injector = MemoryFaultInjector(seed=seed, sites=(site,))
        faults = injector.inject(table, flips=flips)
        detected_before = table.detected_corruptions
        budget = self.step_budget
        try:
            results, steps = table.lookup_within(
                self.addresses, budget, build.golden_pairs,
                build.reached(faults))
        except Exception as exc:  # noqa: BLE001 — any escape is a crash
            return _trial_outcome(
                injector, OUTCOME_CRASH, str(exc),
                error_type=type(exc).__name__)
        if steps > budget:
            return _trial_outcome(
                injector, OUTCOME_HANG,
                f"lookup-step budget of {budget} exhausted "
                f"after {len(results)} lookups", cycles=steps)
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
        # a replica answers with the golden entry objects themselves
        # until a strike replaces one, so only a changed answer needs
        # its signature
        golden = build.golden
        diffs = 0
        for result, (entry, _), want in zip(results, build.golden_pairs,
                                            golden):
            got = None if result is None else result.entry
            if got is not entry and _lookup_signature(result) != want:
                diffs += 1
        if diffs:
            return _trial_outcome(
                injector, OUTCOME_SDC,
                f"silent divergence on {diffs}/{len(golden)} lookups",
                cycles=steps)
        detail = ("identical to the clean table"
                  if faults else "no eligible record to strike")
        return _trial_outcome(injector, OUTCOME_MASKED, detail, cycles=steps)
