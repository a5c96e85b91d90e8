"""Evaluate one architecture instance: simulate + estimate + co-analyse.

This is one turn of the paper's Y-chart loop (§1.1, §2): simulate the
tuned application on the instance (cycle count, bus utilisation), derive
the minimum clock from the throughput constraint, then estimate area and
power at that clock. Configurations whose required clock exceeds the
0.18 µm library limit get no physical estimate — the paper's "NA" rows.

The CAM option needs a fixed point: the CAM's 40 ns search occupies more
*cycles* at higher clocks, and more cycles raise the required clock.
:func:`repro.estimation.frequency.cam_search_latency` iterates latency →
simulate → clock → latency until stable (three rounds on the Table-1
rows, since latency enters cycles additively); each latency is simulated
once and the converged run is the one reported.

Every simulation runs under a cycle ceiling, by default
:data:`repro.tta.simulator.DEFAULT_MAX_CYCLES`; exhausting it raises
:class:`~repro.errors.CycleBudgetError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.dse.config import ArchitectureConfiguration
from repro.errors import FunctionalMismatchError
from repro.estimation.area import AreaBreakdown, estimate_area
from repro.estimation.frequency import cam_search_latency, \
    required_clock_hz
from repro.estimation.power import PowerBreakdown, estimate_power
from repro.estimation.technology import MAX_CLOCK_HZ
from repro.programs.runner import (
    ForwardingRunResult,
    RunOptions,
    run_forwarding,
)
from repro.routing.entry import RouteEntry
from repro.tta.simulator import DEFAULT_MAX_CYCLES
from repro.workload import generate_routes, worst_case_workload

#: the paper's workload: a 100-route table, measured over 12 packets
DEFAULT_TABLE_ENTRIES = 100
DEFAULT_PACKET_BATCH = 12


@dataclass(frozen=True)
class EvaluationResult:
    """Everything Table 1 reports about one configuration."""

    config: ArchitectureConfiguration
    cycles_per_packet: float
    bus_utilization: float
    required_clock_hz: float
    feasible: bool
    area: Optional[AreaBreakdown]
    power: Optional[PowerBreakdown]
    #: None when the result was reconstructed from a campaign record
    #: (the scalar metrics above are preserved; the raw run is not)
    run: Optional[ForwardingRunResult]

    @property
    def area_mm2(self) -> Optional[float]:
        return self.area.total_mm2 if self.area else None

    @property
    def power_w(self) -> Optional[float]:
        return self.power.processor_w if self.power else None

    @property
    def system_power_w(self) -> Optional[float]:
        return self.power.system_w if self.power else None

    def energy_per_packet_nj(self, packet_rate_pps: float) -> Optional[float]:
        """System energy per forwarded datagram in nanojoules.

        The natural figure of merit for comparing feasible designs: at a
        fixed line rate, power divides out into joules per datagram.
        """
        if self.power is None or packet_rate_pps <= 0:
            return None
        return self.power.system_w / packet_rate_pps * 1e9

    def summary(self) -> str:
        clock = f"{self.required_clock_hz / 1e9:.2f} GHz" \
            if self.required_clock_hz >= 1e9 \
            else f"{self.required_clock_hz / 1e6:.0f} MHz"
        area = f"{self.area_mm2:.1f} mm2" if self.area else "NA"
        power = f"{self.power_w:.2f} W" if self.power else "NA"
        return (f"{self.config.describe()}: {clock} required "
                f"({self.cycles_per_packet:.0f} cyc/pkt, "
                f"bus {self.bus_utilization * 100:.0f}%), {area}, {power}")

    def render(self) -> str:
        return self.summary()

    def to_dict(self) -> dict:
        """JSON-ready scalar view (the common ``render``/``to_dict`` pair)."""
        return {
            "config": dataclasses.asdict(self.config),
            "label": self.config.label(),
            "table_kind": self.config.table_kind,
            "cycles_per_packet": self.cycles_per_packet,
            "bus_utilization": self.bus_utilization,
            "required_clock_hz": self.required_clock_hz,
            "feasible": self.feasible,
            "area_mm2": self.area_mm2,
            "power_w": self.power_w,
            "system_power_w": self.system_power_w,
        }


class ArchitectureEvaluator:
    """Evaluates configurations against one workload at the paper's
    10 Gbps constraint."""

    def __init__(self, routes: Optional[Sequence[RouteEntry]] = None,
                 packets: Optional[Sequence[Tuple[int, bytes]]] = None,
                 packet_batch: int = DEFAULT_PACKET_BATCH,
                 table_entries: int = DEFAULT_TABLE_ENTRIES,
                 detect_hazards: bool = False,
                 backend: Optional[str] = None):
        self.routes = list(routes) if routes is not None else \
            generate_routes(table_entries)
        self.packets = list(packets) if packets is not None else \
            worst_case_workload(self.routes, packet_batch)
        self.detect_hazards = detect_hazards
        #: simulation engine for every run this evaluator makes
        #: (None = the default backend; see :mod:`repro.tta.backends`)
        self.backend = backend
        self.evaluations = 0

    # -- public -------------------------------------------------------------------

    def evaluate(self, config: ArchitectureConfiguration,
                 max_cycles: int = DEFAULT_MAX_CYCLES) -> EvaluationResult:
        """Evaluate one configuration.

        *max_cycles* caps the simulation; exhausting it raises
        :class:`~repro.errors.CycleBudgetError` (campaign runners use this
        as a per-evaluation deadline). A functional mismatch raises
        :class:`~repro.errors.FunctionalMismatchError` with the failed
        :class:`ForwardingRunResult` attached as ``run`` so callers can
        inspect the mismatch without re-simulating.
        """
        if config.table_kind == "cam":
            run = None

            def cycles_at(latency: int) -> float:
                # the fixed point settles on the latency it asked for
                # last, so only the latest run is kept: an earlier run's
                # machine is dropped before the next one is built
                nonlocal run
                run = None
                run = self._run(config.with_cam_latency(latency), max_cycles)
                return run.cycles_per_packet

            config = config.with_cam_latency(cam_search_latency(cycles_at))
        else:
            run = self._run(config, max_cycles)
        if not run.correct:
            raise FunctionalMismatchError(
                f"functional mismatch on {config.describe()}: "
                f"{run.mismatches} ({run.report.cycles} cycles executed)",
                run=run)
        cycles = run.cycles_per_packet
        clock = required_clock_hz(cycles)
        feasible = clock <= MAX_CLOCK_HZ
        area = power = None
        if feasible:
            # The paper did not estimate configurations beyond the library
            # limit ("NA ... due to its high clock frequency requirement").
            area = estimate_area(
                config, clock,
                program_store_kbyte=self._program_store_kbyte(run))
            power = estimate_power(config, clock,
                                   bus_utilization=run.bus_utilization,
                                   area=area)
        return EvaluationResult(
            config=config, cycles_per_packet=cycles,
            bus_utilization=run.bus_utilization,
            required_clock_hz=clock, feasible=feasible,
            area=area, power=power, run=run)

    # -- internals --------------------------------------------------------------------

    def _run(self, config: ArchitectureConfiguration,
             max_cycles: int) -> ForwardingRunResult:
        self.evaluations += 1
        return run_forwarding(
            config, self.routes, self.packets,
            options=RunOptions(backend=self.backend, max_cycles=max_cycles,
                               detect_hazards=self.detect_hazards))

    @staticmethod
    def _program_store_kbyte(run: ForwardingRunResult) -> float:
        """Exact instruction-memory footprint of the tuned program."""
        if run.machine is None or run.program_length == 0:
            return 1.0
        from repro.asm.encoding import EncodingScheme
        scheme = EncodingScheme.for_processor(run.machine.processor)
        return scheme.program_bytes(run.program_length) / 1024.0
