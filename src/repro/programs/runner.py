"""End-to-end forwarding measurement: simulate and verify a packet batch.

This is the reproduction of the paper's system-level simulation step: it
builds the architecture instance, generates the tuned program, pushes real
IPv6 datagrams through the line cards, runs the cycle-accurate simulator,
checks functional correctness against the golden (pure-Python) forwarding
semantics, and reports cycles-per-datagram plus utilisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dse.config import ArchitectureConfiguration
from repro.errors import SimulationError
from repro.ipv6.address import Ipv6Address
from repro.ipv6.packet import validate_for_forwarding
from repro.programs.forwarding import build_forwarding_program
from repro.programs.machine import RouterMachine, build_machine
from repro.routing import make_table
from repro.routing.entry import RouteEntry
from repro.tta.backends import create_simulator
from repro.tta.hazards import HazardDetector, HazardReport
from repro.tta.simulator import DEFAULT_MAX_CYCLES, Simulator
from repro.tta.stats import SimulationReport


@dataclass(frozen=True)
class RunOptions:
    """How one forwarding batch should be executed and observed.

    The one options object every evaluation path accepts — the runner,
    the DSE evaluator, :mod:`repro.api`, the campaign runners, and the
    CLI all build one and pass it down to :func:`run_forwarding` as
    ``options=``.
    A ``None`` backend resolves through
    :func:`repro.tta.backends.resolve_backend_name`; the cycle ceiling
    defaults to :data:`repro.tta.simulator.DEFAULT_MAX_CYCLES`.
    """

    #: simulation engine name ("interpreter" | "compiled" | "auto");
    #: None = the default backend
    backend: Optional[str] = None
    #: cycle budget; exhausting it raises CycleBudgetError
    max_cycles: int = DEFAULT_MAX_CYCLES
    #: cross-check line-card output against the golden forwarding model
    verify: bool = True
    #: attach the hazard detector (forces an interpreter fallback on the
    #: compiled backend)
    detect_hazards: bool = False
    #: called with the Simulator after hazard attachment, before run();
    #: the seam fault injectors and tracers use
    instrument: Optional[Callable[[Simulator], None]] = None
    #: replaces the default tuned program generator; the seam the
    #: conformance suite's program mutants use
    program_factory: Optional[Callable[["RouterMachine"], object]] = None


@dataclass
class ForwardingRunResult:
    """Outcome of one simulated forwarding batch."""

    config: ArchitectureConfiguration
    report: SimulationReport
    packets_offered: int
    packets_forwarded: int
    packets_dropped: int
    mismatches: List[str] = field(default_factory=list)
    #: the machine and program used, for post-run inspection (program
    #: store sizing, tracing, punt-queue processing)
    machine: Optional["RouterMachine"] = None
    program_length: int = 0
    #: populated when the run was made with ``detect_hazards=True``
    hazard_report: Optional[HazardReport] = None
    #: the backend that actually executed the run ("interpreter" even
    #: under backend="compiled" when a hook forced a fallback)
    backend: str = "interpreter"

    @property
    def cycles_per_packet(self) -> float:
        if self.packets_offered == 0:
            return 0.0
        return self.report.cycles / self.packets_offered

    @property
    def bus_utilization(self) -> float:
        return self.report.bus_utilization

    @property
    def correct(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (f"{self.config.describe()}: "
                f"{self.report.cycles} cycles for {self.packets_offered} "
                f"packets ({self.cycles_per_packet:.1f}/packet), "
                f"bus util {self.bus_utilization * 100:.0f}%, "
                f"{'OK' if self.correct else 'MISMATCHES'}")


def expected_forwarding(routes: Sequence[RouteEntry],
                        packets: Sequence[Tuple[int, bytes]],
                        ) -> List[Optional[Tuple[int, bytes]]]:
    """Golden behaviour: (output interface, rewritten bytes) or None=drop."""
    reference = make_table("sequential", capacity=max(len(routes), 1))
    reference.load(list(routes))
    expectations: List[Optional[Tuple[int, bytes]]] = []
    for _iface, raw in packets:
        if validate_for_forwarding(raw) is not None:
            expectations.append(None)
            continue
        if raw[6] == 0:  # hop-by-hop options: punted to the slow path
            expectations.append(None)
            continue
        destination = Ipv6Address.from_bytes(raw[24:40])
        if destination.is_multicast():
            expectations.append(None)  # punted to the control plane
            continue
        result = reference.lookup(destination)
        if result is None:
            expectations.append(None)
            continue
        rewritten = raw[:7] + bytes([raw[7] - 1]) + raw[8:]
        expectations.append((result.interface, rewritten))
    return expectations


def run_forwarding(config: ArchitectureConfiguration,
                   routes: Sequence[RouteEntry],
                   packets: Sequence[Tuple[int, bytes]],
                   machine: Optional[RouterMachine] = None,
                   options: Optional[RunOptions] = None
                   ) -> ForwardingRunResult:
    """Simulate one batch of datagrams through a fresh machine.

    Execution and observation knobs travel on *options* (a
    :class:`RunOptions`; ``None`` runs with its defaults).
    """
    options = options or RunOptions()

    if machine is None:
        machine = build_machine(config, table_capacity=max(len(routes), 100))
    machine.load_routes(routes)
    program = options.program_factory(machine) \
        if options.program_factory is not None \
        else build_forwarding_program(machine)

    for iface, raw in packets:
        if not machine.offered_load(iface, raw):
            raise SimulationError(
                f"line card {iface} dropped an offered packet; raise its "
                f"queue depth for batches of {len(packets)}")

    machine.processor.reset()
    simulator = create_simulator(machine.processor, program,
                                 backend=options.backend)
    detector = None
    if options.detect_hazards:
        detector = HazardDetector(machine.processor)
        detector.attach(simulator)
    if options.instrument is not None:
        options.instrument(simulator)
    report = simulator.run(max_cycles=options.max_cycles)

    mismatches: List[str] = []
    forwarded = sum(len(card.transmitted) for card in machine.line_cards)
    if options.verify:
        mismatches = _verify(machine, routes, packets)
    return ForwardingRunResult(
        config=config, report=report,
        packets_offered=len(packets),
        packets_forwarded=forwarded,
        packets_dropped=len(packets) - forwarded,
        mismatches=mismatches,
        machine=machine,
        program_length=len(program),
        hazard_report=detector.report if detector else None,
        backend=simulator.metrics_backend,
    )


def _verify(machine: RouterMachine, routes: Sequence[RouteEntry],
            packets: Sequence[Tuple[int, bytes]]) -> List[str]:
    expectations = expected_forwarding(routes, packets)
    expected_per_card: Dict[int, List[bytes]] = {
        card.index: [] for card in machine.line_cards}
    for expectation in expectations:
        if expectation is None:
            continue
        iface, rewritten = expectation
        expected_per_card[iface].append(rewritten)

    mismatches: List[str] = []
    for card in machine.line_cards:
        expected = expected_per_card[card.index]
        actual = card.transmitted
        # The ippu round-robins across cards, so global order interleaves;
        # compare as multisets per output card, then order within a flow is
        # checked by the router-level tests.
        if sorted(expected) != sorted(actual):
            mismatches.append(
                f"card {card.index}: expected {len(expected)} datagrams, "
                f"got {len(actual)}"
                + ("" if len(expected) != len(actual) else " (content differs)"))
    return mismatches
