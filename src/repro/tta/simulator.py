"""Cycle-accurate simulation loop for TACO processors.

Per cycle, in order:

1. **Commit** — every FU applies operation results that mature this cycle
   (results triggered ``latency`` cycles ago become readable; result bits
   to the NC update).
2. **Fetch** — the NC fetches the instruction at ``pc``.
3. **Guard & read** — each move's guard is evaluated against the committed
   result bits; sources of all surviving moves are read (start-of-cycle
   values, so parallel moves never see each other's writes).
4. **Write** — destinations are written in bus order; a write to a trigger
   port starts that FU's operation; a write to ``nc.pc``/``nc.halt``
   redirects or stops the fetch stream.
5. **Tick** — autonomous units (ippu/oppu DMA engines) advance; the NC
   advances to the next pc.

Steps 1 and 5 visit only the FUs that need it: commit runs on FUs with
pending completions, and tick on FUs whose class overrides it.

The first :meth:`Simulator.step` decodes every instruction once into
slots whose FU references are already resolved, so the cycle loop does
no name lookups; port semantics stay in :class:`FunctionalUnit`'s
``read``/``write``/``commit``.

This mirrors the paper's SystemC simulator's role: functional verification
plus total cycle count plus per-bus/per-FU utilisation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NoReturn, Optional, Tuple

from repro.errors import CycleBudgetError
from repro.obs import get_registry
from repro.obs.catalogue import TTA_CYCLES, TTA_CYCLES_PER_SECOND, \
    TTA_HAZARDS, TTA_MOVES, TTA_MOVES_PER_SECOND, TTA_RUN_SECONDS, TTA_RUNS
from repro.tta.fu import FunctionalUnit
from repro.tta.hazards import PC_WINDOW, loop_signature
from repro.tta.instruction import Move
from repro.tta.memory import ProgramMemory
from repro.tta.ports import Immediate
from repro.tta.processor import TacoProcessor
from repro.tta.stats import SimulationReport

DEFAULT_MAX_CYCLES = 2_000_000

#: the one cycle ceiling every end-to-end evaluation path shares — the
#: forwarding runner, the DSE evaluator, and the CLI's ``--cycle-budget``
#: all resolve their defaults to this constant (a CAM fixed point at
#: latency > 1 runs several times longer than a latency-1 pass, so the
#: paths must agree or they classify the same config differently)
DEFAULT_RUN_MAX_CYCLES = 5_000_000

#: one decoded move slot: (bus, move, guard FU or None, guard negate,
#: source FU or None for an immediate, source port name or immediate
#: value, destination FU, destination port name)
Slot = Tuple[int, Move, Optional[FunctionalUnit], bool,
             Optional[FunctionalUnit], object, FunctionalUnit, str]


def tick_overriders(processor: TacoProcessor) -> List[FunctionalUnit]:
    """FUs with a real (non-base) tick, in processor order."""
    return [fu for fu in processor.fus.values()
            if type(fu).tick is not FunctionalUnit.tick]


def raise_budget_exhausted(simulator: "Simulator", max_cycles: int,
                           pc: int) -> NoReturn:
    """Raise the budget-exhaustion error, with the runaway-loop
    diagnosis recovered from the simulator's trailing pcs."""
    signature = loop_signature(simulator.pc_history)
    detail = f"; {signature.render()}" if signature else ""
    raise CycleBudgetError(
        f"program did not halt within {max_cycles} cycles "
        f"(pc={pc}){detail}",
        cycles=max_cycles, pc=pc, loop=signature,
        diagnosis=signature.render() if signature else None)


class Simulator:
    """Drives a :class:`TacoProcessor` through a program."""

    #: registry name of this execution backend (metrics label value);
    #: see :mod:`repro.tta.backends`
    backend_name = "interpreter"

    def __init__(self, processor: TacoProcessor, program: ProgramMemory,
                 strict: bool = True):
        processor.validate_program(program)
        self.processor = processor
        self.program = program
        self.strict = strict
        self.report = SimulationReport(
            bus_busy_cycles=[0] * processor.bus_count)
        self.cycle = 0
        #: trailing pcs for runaway-loop diagnosis on budget exhaustion
        self.pc_history: Deque[int] = deque(maxlen=PC_WINDOW)
        #: optional observer: on_move(cycle, pc, bus, move, value);
        #: value is None when a guard squashed the move
        self.move_hook = None
        #: optional transport filter: (cycle, pc, bus, move, value) ->
        #: (move, value), applied after the source read and *before* the
        #: move_hook observers and the destination write — the injection
        #: point for datapath fault models. Observers therefore see the
        #: transport exactly as it happened on the bus, faults included,
        #: the way a hardware bus monitor would.
        self.transport_filter = None
        #: which backend actually executed the most recent ``run()`` —
        #: differs from :attr:`backend_name` when the compiled backend
        #: fell back to the interpreter because a hook was attached
        self.metrics_backend = self.backend_name
        #: per pc: the decoded slots of that instruction (built by the
        #: first step)
        self._decoded: Optional[Tuple[Tuple[Slot, ...], ...]] = None
        self._all_fus: Tuple[FunctionalUnit, ...] = ()
        self._tick_fus: Tuple[FunctionalUnit, ...] = ()

    # -- public API ---------------------------------------------------------------

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimulationReport:
        """Run until the program halts; raises if *max_cycles* is exceeded."""
        registry = get_registry()
        start = (registry.time(), self.cycle, self.report.moves_executed,
                 dict(self.report.hazards)) if registry.enabled else None
        try:
            while not self.processor.nc.halted:
                if self.cycle >= max_cycles:
                    raise_budget_exhausted(self, max_cycles,
                                           self.processor.nc.pc)
                self.step()
        finally:
            # Publish even on a budget raise: the cycles were executed.
            if start is not None:
                self._publish_run_metrics(registry, *start)
        self.report.halted = True
        return self.report

    def _publish_run_metrics(self, registry, t0: float, start_cycles: int,
                             start_moves: int, start_hazards) -> None:
        """Aggregate counters for one run, observed at the boundary so
        the per-cycle loop carries zero instrumentation cost."""
        elapsed = registry.time() - t0
        cycles = self.cycle - start_cycles
        moves = self.report.moves_executed - start_moves
        backend = self.metrics_backend
        TTA_RUNS.inc(backend=backend)
        TTA_CYCLES.inc(cycles, backend=backend)
        TTA_MOVES.inc(moves, backend=backend)
        TTA_RUN_SECONDS.observe(elapsed, backend=backend)
        if elapsed > 0:
            TTA_CYCLES_PER_SECOND.set(cycles / elapsed, backend=backend)
            TTA_MOVES_PER_SECOND.set(moves / elapsed, backend=backend)
        for kind, count in self.report.hazards.items():
            delta = count - start_hazards.get(kind, 0)
            if delta > 0:
                TTA_HAZARDS.inc(delta, kind=kind)

    def run_cycles(self, count: int) -> SimulationReport:
        """Run exactly *count* cycles (or fewer if the program halts)."""
        for _ in range(count):
            if self.processor.nc.halted:
                break
            self.step()
        self.report.halted = self.processor.nc.halted
        return self.report

    def step(self) -> None:
        """Execute one clock cycle."""
        decoded = self._decoded
        if decoded is None:
            decoded = self._decode()
        processor = self.processor
        nc = processor.nc
        report = self.report
        busy = report.bus_busy_cycles
        cycle = self.cycle

        # 1. commit matured results
        for fu in self._all_fus:
            if fu._pending:
                fu.commit(cycle)

        # 2. fetch
        pc = nc.pc
        if not 0 <= pc < len(decoded):
            self.program.fetch(pc)  # raises the out-of-range error
        report.instructions_fetched += 1
        self.pc_history.append(pc)

        # 3. guards + source reads
        move_hook = self.move_hook
        transport_filter = self.transport_filter
        issued: List[Tuple[int, Move, int, Optional[FunctionalUnit],
                           str]] = []
        for (bus_index, move, guard_fu, negate, source_fu, source,
             fu, port) in decoded[pc]:
            # squashed when the result bit is false (or true, if negated)
            if guard_fu is not None and (not guard_fu.result_bit) != negate:
                report.moves_squashed += 1
                # The slot was occupied in the instruction word; count
                # the bus as driven, matching hardware activity.
                busy[bus_index] += 1
                if move_hook is not None:
                    move_hook(cycle, pc, bus_index, move, None)
                continue
            if source_fu is None:
                value = source
            else:
                value = source_fu.read(source, cycle, strict=self.strict)
            if transport_filter is not None:
                filtered, value = transport_filter(
                    cycle, pc, bus_index, move, value)
                if filtered is not move:
                    # a fault may have redirected the destination
                    move, fu = filtered, None
            if move_hook is not None:
                move_hook(cycle, pc, bus_index, move, value)
            issued.append((bus_index, move, value, fu, port))

        # 4. destination writes, in bus order
        fu_triggers = report.fu_triggers
        for bus_index, move, value, fu, port in issued:
            if fu is None:
                fu, _port = processor.resolve(move.destination)
                port = move.destination.port
            fu.write(port, value, cycle)
            report.moves_executed += 1
            busy[bus_index] += 1
            fu_triggers[fu.name] = fu.trigger_count

        # 5. autonomous units tick; NC advances
        for fu in self._tick_fus:
            fu.tick(cycle)
        nc.advance()

        self.cycle = report.cycles = cycle + 1

    def _decode(self) -> Tuple[Tuple[Slot, ...], ...]:
        """Resolve every move of the program to its FUs, once.

        Also seeds ``report.fu_triggers`` with every FU in processor
        order; :meth:`step` then updates only the FUs it writes, the only
        ones whose trigger count can change.
        """
        fus = self.processor.fus
        decoded = []
        for instruction in self.program:
            slots = []
            for bus_index, move in enumerate(instruction.moves):
                if move is None:
                    continue
                guard, source = move.guard, move.source
                if isinstance(source, Immediate):
                    source_fu, source_operand = None, source.value
                else:
                    source_fu, source_operand = fus[source.fu], source.port
                slots.append((
                    bus_index, move,
                    None if guard is None else fus[guard.fu],
                    guard is not None and guard.negate,
                    source_fu, source_operand,
                    fus[move.destination.fu], move.destination.port))
            decoded.append(tuple(slots))
        self._decoded = tuple(decoded)
        self._all_fus = tuple(fus.values())
        self._tick_fus = tuple(tick_overriders(self.processor))
        for name, fu in fus.items():
            self.report.fu_triggers[name] = fu.trigger_count
        return self._decoded


def simulate(processor: TacoProcessor, program: ProgramMemory,
             max_cycles: int = DEFAULT_MAX_CYCLES,
             strict: bool = True) -> SimulationReport:
    """One-shot convenience: reset, run to halt, return the report."""
    processor.reset()
    simulator = Simulator(processor, program, strict=strict)
    return simulator.run(max_cycles=max_cycles)
