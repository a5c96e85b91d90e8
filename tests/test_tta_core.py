"""TTA core semantics: ports, triggers, latency, guards, control flow."""

import gc
import weakref

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    TtaError,
)
from repro.tta import (
    DEFAULT_MAX_CYCLES,
    DataMemory,
    Guard,
    Immediate,
    Instruction,
    Interconnect,
    Move,
    PortKind,
    PortRef,
    ProgramMemory,
    RegisterFileUnit,
    TacoProcessor,
    Simulator,
    nop,
    simulate,
    truncate,
)
from repro.programs.forwarding import MODE_BENCH, build_forwarding_program
from repro.programs.machine import build_machine
from repro.programs.runner import RunOptions, run_forwarding
from repro.tta.fu import FunctionalUnit
from repro.tta.fus import Comparator, Counter, Shifter
from repro.verify import table1_grid
from repro.workload import generate_routes, worst_case_workload

P = PortRef
I = Immediate


def make_processor(buses=2, extra=()):
    return TacoProcessor(
        Interconnect(bus_count=buses),
        [Counter("cnt0"), Shifter("shf0"), Comparator("cmp0"),
         RegisterFileUnit("gpr", 8), *extra],
        data_memory=DataMemory(256))


def run(processor, instructions):
    program = ProgramMemory([
        *instructions,
        Instruction.of([Move(I(0), P("nc", "halt"))],
                       processor.bus_count),
    ])
    return simulate(processor, program)


class TestPorts:
    def test_truncate_wraps_32_bits(self):
        assert truncate(1 << 32) == 0
        assert truncate(-1) == 0xFFFFFFFF

    def test_immediate_range_checked(self):
        with pytest.raises(TtaError):
            Immediate(1 << 32)
        with pytest.raises(TtaError):
            Immediate(-1)

    def test_unknown_port_rejected(self):
        processor = make_processor()
        with pytest.raises(TtaError):
            processor.resolve(P("cnt0", "nope"))

    def test_unknown_fu_rejected(self):
        processor = make_processor()
        with pytest.raises(TtaError):
            processor.fu("ghost")


class TestInstruction:
    def test_width_enforced(self):
        with pytest.raises(TtaError):
            Instruction.of([Move(I(0), P("a", "t"))] * 3, 2)

    def test_duplicate_destination_rejected(self):
        move = Move(I(0), P("cnt0", "o"))
        with pytest.raises(TtaError):
            Instruction(moves=(move, Move(I(1), P("cnt0", "o"))))

    def test_nop(self):
        assert nop(3).moves == (None, None, None)


class TestExecutionSemantics:
    def test_result_visible_after_latency(self):
        processor = make_processor()
        report = run(processor, [
            Instruction.of([Move(I(3), P("cnt0", "o"))], 2),
            Instruction.of([Move(I(4), P("cnt0", "t_add"))], 2),
            Instruction.of([Move(P("cnt0", "r"), P("gpr", "r0"))], 2),
        ])
        assert processor.fu("gpr").ports["r0"].value == 7
        assert report.halted

    def test_same_cycle_read_sees_old_value(self):
        # reads happen before writes within a cycle: a read racing its own
        # trigger deterministically returns the previous value
        processor = make_processor()
        run(processor, [
            Instruction.of([Move(I(3), P("cnt0", "o"))], 2),
            Instruction.of([Move(I(4), P("cnt0", "t_add"))], 2),
            Instruction.of([Move(P("cnt0", "r"), P("gpr", "r0"))], 2),
            Instruction.of([Move(I(9), P("cnt0", "t_add")),
                            Move(P("cnt0", "r"), P("gpr", "r1"))], 2),
        ])
        assert processor.fu("gpr").ports["r0"].value == 7
        assert processor.fu("gpr").ports["r1"].value == 7  # old value

    def test_strict_mode_rejects_premature_read(self):
        class SlowUnit(FunctionalUnit):
            kind = "slow"
            latency = 3

            def _declare_ports(self):
                self.add_port("t", PortKind.TRIGGER)
                self.add_port("r", PortKind.RESULT)

            def _execute(self, trigger_port, value, cycle):
                self.finish(cycle, {"r": value + 1})

        processor = make_processor(extra=[SlowUnit("slow0")])
        program = ProgramMemory([
            Instruction.of([Move(I(4), P("slow0", "t"))], 2),
            # read one cycle later: the 3-cycle operation is still in flight
            Instruction.of([Move(P("slow0", "r"), P("gpr", "r0"))], 2),
            Instruction.of([Move(I(0), P("nc", "halt"))], 2),
        ])
        processor.reset()
        with pytest.raises(SimulationError):
            simulate(processor, program)

    def test_same_cycle_operand_and_trigger(self):
        processor = make_processor()
        run(processor, [
            # operand on bus 0, trigger on bus 1, same instruction
            Instruction.of([Move(I(10), P("cnt0", "o")),
                            Move(I(5), P("cnt0", "t_add"))], 2),
            Instruction.of([Move(P("cnt0", "r"), P("gpr", "r1"))], 2),
        ])
        assert processor.fu("gpr").ports["r1"].value == 15

    def test_parallel_reads_see_old_register_value(self):
        processor = make_processor()
        run(processor, [
            Instruction.of([Move(I(1), P("gpr", "r0"))], 2),
            # read r0 and overwrite it in the same cycle
            Instruction.of([Move(P("gpr", "r0"), P("gpr", "r1")),
                            Move(I(9), P("gpr", "r0"))], 2),
        ])
        assert processor.fu("gpr").ports["r1"].value == 1
        assert processor.fu("gpr").ports["r0"].value == 9

    def test_write_to_result_port_rejected(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(I(1), P("cnt0", "r"))], 2)])
        with pytest.raises(SimulationError):
            simulate(processor, program)

    def test_read_of_operand_port_rejected(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(P("cnt0", "o"), P("gpr", "r0"))], 2)])
        with pytest.raises(SimulationError):
            simulate(processor, program)


class TestGuardsAndControl:
    def test_guarded_move_squashes(self):
        processor = make_processor()
        report = run(processor, [
            Instruction.of([Move(I(5), P("cmp0", "o"))], 2),
            Instruction.of([Move(I(4), P("cmp0", "t_lt"))], 2),  # 4 < 5 true
            Instruction.of([Move(I(1), P("gpr", "r0"), Guard("cmp0")),
                            Move(I(1), P("gpr", "r1"),
                                 Guard("cmp0", negate=True))], 2),
        ])
        assert processor.fu("gpr").ports["r0"].value == 1
        assert processor.fu("gpr").ports["r1"].value == 0
        assert report.moves_squashed == 1

    def test_loop_via_counter_stop_signal(self):
        processor = make_processor()
        report = run(processor, [
            Instruction.of([Move(I(5), P("cnt0", "o_stop"))], 2),
            Instruction.of([Move(I(0), P("cnt0", "t_inc"))], 2),
            Instruction.of([Move(P("cnt0", "r"), P("cnt0", "t_inc")),
                            Move(I(2), P("nc", "pc"),
                                 Guard("cnt0", negate=True))], 2),
        ])
        # one extra increment happens in the guard-latency shadow
        assert processor.fu("cnt0").ports["r"].value == 6
        assert processor.nc.jumps_taken == 4

    def test_jump_takes_effect_next_cycle(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(I(2), P("nc", "pc")),
                            Move(I(7), P("gpr", "r0"))], 2),   # 0: both run
            Instruction.of([Move(I(9), P("gpr", "r0"))], 2),   # 1: skipped
            Instruction.of([Move(I(0), P("nc", "halt"))], 2),  # 2: target
        ])
        report = simulate(processor, program)
        assert processor.fu("gpr").ports["r0"].value == 7
        assert report.cycles == 2

    def test_runaway_program_detected(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(I(0), P("nc", "pc"))], 2)])
        with pytest.raises(SimulationError):
            simulate(processor, program, max_cycles=100)

    def test_pc_out_of_range_detected(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(I(99), P("nc", "pc"))], 2)])
        with pytest.raises(SimulationError):
            simulate(processor, program)


class TestStructure:
    def test_duplicate_fu_name_rejected(self):
        with pytest.raises(ConfigurationError):
            TacoProcessor(Interconnect(bus_count=1),
                          [Counter("x"), Shifter("x")])

    def test_program_width_must_match(self):
        processor = make_processor(buses=2)
        program = ProgramMemory([nop(3)])
        with pytest.raises(ConfigurationError):
            processor.validate_program(program)

    def test_connectivity_restriction_enforced(self):
        interconnect = Interconnect(bus_count=2,
                                    connectivity={"cnt0": frozenset({0})})
        processor = TacoProcessor(interconnect,
                                  [Counter("cnt0"),
                                   RegisterFileUnit("gpr", 4)])
        bad = ProgramMemory([
            Instruction(moves=(None, Move(I(1), P("cnt0", "o"))))])
        with pytest.raises(ConfigurationError):
            processor.validate_program(bad)
        good = ProgramMemory([
            Instruction(moves=(Move(I(1), P("cnt0", "o")), None))])
        processor.validate_program(good)

    def test_interconnect_validation(self):
        with pytest.raises(ConfigurationError):
            Interconnect(bus_count=0)
        with pytest.raises(ConfigurationError):
            Interconnect(bus_count=2, connectivity={"x": frozenset({5})})
        with pytest.raises(ConfigurationError):
            Interconnect(bus_count=2, connectivity={"x": frozenset()})

    def test_bus_utilization_measured(self):
        processor = make_processor(buses=2)
        report = run(processor, [
            Instruction.of([Move(I(1), P("gpr", "r0")),
                            Move(I(2), P("gpr", "r1"))], 2),
            Instruction.of([Move(I(3), P("gpr", "r2"))], 2),
        ])
        # 3 instructions total (incl. halt): busy slots = 2 + 1 + 1 of 6
        assert report.moves_executed == 4
        assert report.bus_utilization == pytest.approx(4 / 6)


class MixedLatencyUnit(FunctionalUnit):
    """``t_slow`` completes after ``slow_latency`` cycles, ``t_fast``
    after one; both drive ``r`` and an odd-value result bit."""

    kind = "mixed"

    def __init__(self, name, slow_latency):
        self.slow_latency = slow_latency
        super().__init__(name)

    def _declare_ports(self):
        self.add_port("t_slow", PortKind.TRIGGER)
        self.add_port("t_fast", PortKind.TRIGGER)
        self.add_port("r", PortKind.RESULT)

    def _execute(self, trigger_port, value, cycle):
        latency = self.slow_latency if trigger_port == "t_slow" else 1
        self.finish(cycle, {"r": value}, result_bit=value % 2 == 1,
                    latency=latency)


class TickingUnit(FunctionalUnit):
    """Its trigger completes with the result bit set; every tick clears
    the bit, as a DMA engine driving its own NC wire would."""

    kind = "ticking"

    def _declare_ports(self):
        self.add_port("t", PortKind.TRIGGER)

    def _execute(self, trigger_port, value, cycle):
        self.finish(cycle, {}, result_bit=True)

    def tick(self, cycle):
        self.result_bit = False


class TestEagerCompletion:
    """Latency-1 results apply at the trigger, indistinguishably from a
    commit at the start of the next cycle; everything else, including a
    result bit on a unit that overrides ``tick``, is queued."""

    @staticmethod
    def simulator(processor, instructions):
        processor.reset()
        return Simulator(processor, ProgramMemory([
            *instructions,
            Instruction.of([Move(I(0), P("nc", "halt"))],
                           processor.bus_count)]))

    def test_latency1_result_readable_from_next_cycle(self):
        processor = make_processor()
        sim = self.simulator(processor, [
            Instruction.of([Move(I(3), P("cnt0", "o"))], 2),
            Instruction.of([Move(I(4), P("cnt0", "t_add"))], 2),  # cycle 1
            Instruction.of([Move(P("cnt0", "r"), P("gpr", "r0"))], 2),
        ])
        sim.step()
        sim.step()
        counter = processor.fu("cnt0")
        result = counter.ports["r"]
        # the trigger cycle + 1, as a next-cycle commit would set it
        assert (result.value, result.valid_from_cycle) == (7, 2)
        assert counter._pending == []
        sim.run()  # the strict read in cycle 2 passes
        assert processor.fu("gpr").ports["r0"].value == 7

    def test_strict_read_one_cycle_early_raises(self):
        counter = Counter("cnt9")
        counter.write("o", 3, cycle=5)
        counter.write("t_add", 4, cycle=5)
        with pytest.raises(SimulationError,
                           match="cycle 5: cnt9.r not valid until cycle 6"):
            counter.read("r", 5)
        assert counter.read("r", 6) == 7

        processor = make_processor(extra=[MixedLatencyUnit("mix0", 2)])
        sim = self.simulator(processor, [
            Instruction.of([Move(I(5), P("mix0", "t_slow"))], 2),
            Instruction.of([Move(P("mix0", "r"), P("gpr", "r0"))], 2),
        ])
        with pytest.raises(SimulationError,
                           match="cycle 1: mix0.r not valid until cycle 2"):
            sim.run()

    def test_queued_completions_apply_in_schedule_order(self):
        # latency 2 in cycle 0 and latency 1 in cycle 1 both mature in
        # cycle 2: the newer one wins, value and result bit alike
        processor = make_processor(extra=[MixedLatencyUnit("mix0", 2)])
        sim = self.simulator(processor, [
            Instruction.of([Move(I(5), P("mix0", "t_slow"))], 2),
            Instruction.of([Move(I(8), P("mix0", "t_fast"))], 2),
            Instruction.of([Move(P("mix0", "r"), P("gpr", "r0")),
                            Move(I(1), P("gpr", "r1"), Guard("mix0"))], 2),
        ])
        sim.run()
        gpr = processor.fu("gpr")
        assert gpr.ports["r0"].value == 8
        assert gpr.ports["r1"].value == 0  # 8 is even: the move squashed

    def test_older_completion_maturing_later_overwrites_newer(self):
        # latency 3 in cycle 0 matures in cycle 3, after the latency-1
        # completion issued in cycle 1 (visible in cycle 2)
        processor = make_processor(extra=[MixedLatencyUnit("mix0", 3)])
        sim = self.simulator(processor, [
            Instruction.of([Move(I(5), P("mix0", "t_slow"))], 2),
            Instruction.of([Move(I(8), P("mix0", "t_fast"))], 2),
            Instruction.of([Move(P("mix0", "r"), P("gpr", "r0"))], 2),
            Instruction.of([Move(P("mix0", "r"), P("gpr", "r1"))], 2),
        ])
        sim.run()
        gpr = processor.fu("gpr")
        assert (gpr.ports["r0"].value, gpr.ports["r1"].value) == (8, 5)
        result = processor.fu("mix0").ports["r"]
        assert (result.value, result.valid_from_cycle) == (5, 3)

    def test_ticking_unit_result_bit_stays_deferred(self):
        # deferred, the trigger's bit lands after cycle 0's tick cleared
        # it; applied at the trigger, the tick would clear it first
        processor = make_processor(extra=[TickingUnit("tick0")])
        sim = self.simulator(processor, [
            Instruction.of([Move(I(0), P("tick0", "t"))], 2),
            Instruction.of([Move(I(1), P("gpr", "r0"), Guard("tick0"))], 2),
        ])
        sim.step()
        assert processor.fu("tick0")._pending
        sim.run()
        assert processor.fu("gpr").ports["r0"].value == 1

    def test_default_table1_queues_only_deferred_completions(self,
                                                             monkeypatch):
        # Every stock unit is latency 1, so only two kinds of completion
        # are queued: the CAM rows' searches, at the latency their clock
        # fixed point derives, and the result bit of the ticking oppu.
        # Every completion passes through finish, which queues it or
        # applies it at once, so the test watches finish.
        from repro import api

        finish = FunctionalUnit.finish
        finishes, pending = [0], set()

        def checked_finish(fu, cycle, results, result_bit=None,
                           latency=None):
            queued = len(fu._pending)
            finish(fu, cycle, results, result_bit, latency)
            finishes[0] += 1
            pending.update(
                (fu.name, getattr(fu, "search_latency", fu.latency),
                 fu.overrides_tick and bit is not None)
                for _ready, _results, bit in fu._pending[queued:])

        monkeypatch.setattr(FunctionalUnit, "finish", checked_finish)
        rows = api.table1(backend="interpreter")
        assert len(rows) == 9
        assert finishes[0] > 0
        assert {name for name, _, _ in pending} == {"rtu0", "oppu0"}
        assert all(latency > 1 or ticking_bit
                   for _, latency, ticking_bit in pending)


class SlowTriggerUnit(FunctionalUnit):
    """Non-pipelined 3-cycle unit."""

    kind = "slow"
    latency = 3
    pipelined = False

    def _declare_ports(self):
        self.add_port("t", PortKind.TRIGGER)
        self.add_port("r", PortKind.RESULT)

    def _execute(self, trigger_port, value, cycle):
        self.finish(cycle, {"r": value + 1})


class TestDecodedPortChecks:
    """The decoded step keeps every port check's cycle and message."""

    @pytest.mark.parametrize("moves, message", [
        ([[Move(I(1), P("cnt0", "r"))]],
         "cycle 0: move writes read-only port cnt0.r"),
        ([[Move(P("cnt0", "o"), P("gpr", "r0"))]],
         "cycle 0: move reads write-only port cnt0.o"),
        ([[Move(I(4), P("slow0", "t"))],
          [Move(P("slow0", "r"), P("gpr", "r0"))]],
         "cycle 1: slow0.r not valid until cycle 3"),
        ([[Move(I(4), P("slow0", "t"))], [Move(I(5), P("slow0", "t"))]],
         "cycle 1: structural hazard — slow0 busy until cycle 3"),
    ])
    def test_error_cycle_and_message(self, moves, message):
        processor = make_processor(extra=[SlowTriggerUnit("slow0")])
        with pytest.raises(SimulationError) as raised:
            run(processor, [Instruction.of(row, 2) for row in moves])
        assert str(raised.value) == message

    def test_redirected_destination_is_checked(self):
        processor = make_processor()
        processor.reset()
        sim = Simulator(processor, ProgramMemory([
            Instruction.of([Move(I(1), P("gpr", "r0"))], 2)]))
        sim.transport_filter = lambda cycle, pc, bus, move, value: (
            Move(move.source, P("cnt0", "r")), value)
        with pytest.raises(SimulationError,
                           match="cycle 0: move writes read-only port "
                                 "cnt0.r"):
            sim.step()


class TestNonPipelinedHazard:
    def test_structural_hazard_detected(self):
        class SlowUnit(FunctionalUnit):
            kind = "slow"
            latency = 3
            pipelined = False

            def _declare_ports(self):
                self.add_port("t", PortKind.TRIGGER)
                self.add_port("r", PortKind.RESULT)

            def _execute(self, trigger_port, value, cycle):
                self.finish(cycle, {"r": value + 1})

        processor = TacoProcessor(
            Interconnect(bus_count=1), [SlowUnit("slow0")])
        program = ProgramMemory([
            Instruction.of([Move(I(1), P("slow0", "t"))], 1),
            Instruction.of([Move(I(2), P("slow0", "t"))], 1),
        ])
        with pytest.raises(SimulationError):
            simulate(processor, program)


class TestReportMaintenance:
    """Report fields the decoded step maintains incrementally."""

    PROGRAM = [
        Instruction.of([Move(I(3), P("cnt0", "o")),
                        Move(I(5), P("cmp0", "o"))], 2),
        Instruction.of([Move(I(4), P("cnt0", "t_add"))], 2),
        Instruction.of([Move(I(1), P("cnt0", "t_inc")),
                        Move(P("cnt0", "r"), P("gpr", "r0"))], 2),
        Instruction.of([Move(I(0), P("nc", "halt"))], 2),
    ]

    def simulator(self, processor):
        processor.reset()
        return Simulator(processor, ProgramMemory(self.PROGRAM))

    @staticmethod
    def counts(processor):
        return [(name, fu.trigger_count)
                for name, fu in processor.fus.items()]

    def test_fu_triggers_after_run_cycles(self):
        processor = make_processor()
        sim = self.simulator(processor)
        for k in (1, 2, 1):
            for _ in range(k):
                sim.step()
            report = sim.report
            # every FU in processor order, untriggered ones at zero
            assert list(report.fu_triggers.items()) == self.counts(processor)
        assert report.fu_triggers["cnt0"] == 2
        assert report.fu_triggers["shf0"] == 0
        assert report.fu_triggers["cmp0"] == 0
        assert report.fu_triggers["nc"] == 1

    def test_fu_triggers_after_run(self):
        processor = make_processor()
        report = self.simulator(processor).run()
        assert list(report.fu_triggers) == list(processor.fus)
        assert list(report.fu_triggers.items()) == self.counts(processor)

    def test_run_on_halted_processor_leaves_fu_triggers_empty(self):
        processor = make_processor()
        sim = self.simulator(processor)
        processor.nc.halted = True
        report = sim.run()
        assert report.fu_triggers == {}
        assert report.cycles == 0
        assert report.halted

    def test_transport_filter_destination_rewrite_is_written(self):
        processor = make_processor()
        sim = self.simulator(processor)

        def misroute(cycle, pc, bus, move, value):
            if move.destination == P("cmp0", "o"):
                return Move(move.source, P("gpr", "r7")), value
            return move, value

        seen = []
        sim.transport_filter = misroute
        sim.move_hook = lambda cycle, pc, bus, move, value: \
            seen.append(move.destination)
        sim.run()
        assert processor.fu("gpr").ports["r7"].value == 5
        assert processor.fu("cmp0").ports["o"].value == 0
        # observers see the transport as it happened on the bus
        assert P("gpr", "r7") in seen and P("cmp0", "o") not in seen

    def test_in_place_write_wraps_a_filtered_value(self):
        # a transport filter may hand back any integer; a plain operand
        # or register write still lands on the 32-bit datapath
        processor = make_processor()
        sim = self.simulator(processor)
        widened = {P("cnt0", "o"): lambda value: value | 1 << 40,
                   P("gpr", "r0"): lambda value: -value}

        def widen(cycle, pc, bus, move, value):
            return move, widened.get(move.destination, int)(value)

        sim.transport_filter = widen
        sim.run()
        assert processor.fu("cnt0").ports["o"].value == 3
        assert processor.fu("gpr").ports["r0"].value == truncate(-7)


def _grid_run(config, drive):
    """One small Table-1 batch on a fresh machine of *config*, driven by
    *drive(simulator)*; returns the report and the machine's state."""
    routes = generate_routes(12)
    machine = build_machine(config, table_capacity=100)
    machine.load_routes(routes)
    program = build_forwarding_program(machine, mode=MODE_BENCH)
    for iface, raw in worst_case_workload(routes, 3):
        assert machine.offered_load(iface, raw)
    processor = machine.processor
    processor.reset()
    sim = Simulator(processor, program)
    drive(sim)
    state = {name: (fu.trigger_count, fu.result_bit, fu._busy_until,
                    list(fu._pending),
                    {port.name: (port.value, port.valid_from_cycle)
                     for port in fu.ports.values()})
             for name, fu in processor.fus.items()}
    return sim.report, state, processor.nc.pc, \
        list(processor.data_memory._words), \
        [list(card.transmitted) for card in machine.line_cards]


def _stepped(sim):
    for _ in range(100_000):
        sim.step()
        if sim.processor.nc.halted:
            sim.run()  # marks the report halted; runs no cycle
            return
    raise AssertionError("stepped run did not halt")


def _hooked(sim):
    sim.move_hook = lambda cycle, pc, bus, move, value: None
    sim.run()


class TestOneCycleLoop:
    """``run`` and ``step`` drive one loop body, with or without a
    hook."""

    @pytest.mark.parametrize(
        "config", table1_grid((13, 7)),
        ids=lambda config: f"{config.label()}-{config.table_kind}"
                           f"@{config.cam_search_latency}")
    def test_run_stepped_and_hooked_runs_agree(self, config):
        reference = _grid_run(config, Simulator.run)
        assert reference[0].halted and reference[0].cycles > 0
        assert _grid_run(config, _stepped) == reference
        assert _grid_run(config, _hooked) == reference


def _raising_run(rows, max_cycles=DEFAULT_MAX_CYCLES):
    processor = make_processor(extra=[SlowTriggerUnit("slow0")])
    processor.reset()
    sim = Simulator(processor, ProgramMemory(
        [Instruction.of(row, processor.bus_count) for row in rows]))
    with pytest.raises(SimulationError) as raised:
        sim.run(max_cycles=max_cycles)
    report = sim.report
    # every FU's trigger count is brought up to date on the raise too
    assert report.fu_triggers == {name: fu.trigger_count
                                  for name, fu in processor.fus.items()}
    assert report.cycles == sim.cycle
    return str(raised.value), (
        report.cycles, report.instructions_fetched, report.moves_executed,
        report.moves_squashed, report.bus_busy_cycles,
        {name: count for name, count in report.fu_triggers.items()
         if count})


class TestReportOnRaise:
    """A raise mid-cycle leaves the report as of the last completed
    move: the cycle in flight is not counted, its fetch is, and so are
    the moves on lower buses that were written before the raise."""

    def test_read_only_write(self):
        assert _raising_run([
            [Move(I(3), P("cnt0", "o")), Move(I(4), P("cnt0", "t_add"))],
            [Move(I(1), P("cnt0", "t_inc")),
             Move(I(2), P("gpr", "r1"), Guard("cmp0"))],
            [Move(I(7), P("gpr", "r0")), Move(I(1), P("cnt0", "r"))],
        ]) == ("cycle 2: move writes read-only port cnt0.r",
               (2, 3, 4, 1, [3, 2], {"cnt0": 2}))

    def test_structural_hazard(self):
        assert _raising_run([
            [Move(I(4), P("slow0", "t")), Move(I(1), P("cnt0", "t_inc"))],
            [Move(I(9), P("gpr", "r0")), Move(I(5), P("slow0", "t"))],
        ]) == ("cycle 1: structural hazard — slow0 busy until cycle 3",
               (1, 2, 3, 0, [2, 1], {"cnt0": 1, "slow0": 1}))

    def test_budget_exhaustion(self):
        message, report = _raising_run([
            [Move(I(1), P("cnt0", "t_inc")), Move(I(0), P("nc", "pc"))],
        ], max_cycles=7)
        assert message.startswith(
            "program did not halt within 7 cycles (pc=0)")
        assert report == (7, 7, 14, 0, [7, 7], {"cnt0": 7, "nc": 7})


class TestQueuedUnits:
    """The processor's set of FUs with queued completions, which the
    commit step visits instead of every FU."""

    PROGRAM = [
        Instruction.of([], 2), Instruction.of([], 2),
        Instruction.of([Move(P("slow0", "r"), P("gpr", "r0"))], 2),
        Instruction.of([Move(I(0), P("nc", "halt"))], 2),
    ]

    @staticmethod
    def processor():
        processor = make_processor(extra=[SlowTriggerUnit("slow0")])
        processor.reset()
        return processor

    def test_completion_queued_before_the_first_cycle_commits(self):
        processor = self.processor()
        processor.fu("slow0").write("t", 4, cycle=0)  # ready in cycle 3
        assert processor.queued_units == {"slow0"}
        sim = Simulator(processor, ProgramMemory(
            [Instruction.of([], 2), *self.PROGRAM]))
        sim.run()
        assert processor.fu("gpr").ports["r0"].value == 5
        assert processor.queued_units == set()

    def test_second_simulator_commits_the_first_ones_completion(self):
        processor = self.processor()
        first = Simulator(processor, ProgramMemory([
            Instruction.of([Move(I(4), P("slow0", "t"))], 2),
            Instruction.of([Move(I(0), P("nc", "halt"))], 2)]))
        first.step()
        assert processor.queued_units == {"slow0"}
        # the second one starts at pc 1 and counts cycles from 0, so it
        # reads in its cycle 3, when the completion matures
        second = Simulator(processor, ProgramMemory(
            [Instruction.of([], 2)] * 2 + self.PROGRAM))
        second.run()
        assert processor.fu("gpr").ports["r0"].value == 5
        assert processor.queued_units == set()

    def test_reset_between_runs_drops_the_queued_units(self):
        processor = self.processor()
        processor.fu("slow0").write("t", 4, cycle=0)
        processor.reset()
        assert processor.queued_units == set()
        assert processor.fu("slow0")._pending == []
        sim = Simulator(processor, ProgramMemory([
            Instruction.of([Move(I(6), P("slow0", "t"))], 2),
            *self.PROGRAM]))
        sim.run()
        assert processor.fu("gpr").ports["r0"].value == 7
        assert processor.queued_units == set()

    def test_unit_stays_queued_while_a_completion_remains(self):
        processor = make_processor(extra=[MixedLatencyUnit("mix0", 3)])
        processor.reset()
        sim = Simulator(processor, ProgramMemory([
            Instruction.of([Move(I(5), P("mix0", "t_slow"))], 2),
            Instruction.of([Move(I(8), P("mix0", "t_fast"))], 2),
            Instruction.of([], 2),
            Instruction.of([Move(I(0), P("nc", "halt"))], 2)]))
        for _ in range(3):  # cycle 2 committed the fast completion only
            sim.step()
        assert processor.queued_units == {"mix0"}
        sim.run()
        assert processor.fu("mix0").ports["r"].value == 5
        assert processor.queued_units == set()

    def test_commit_keeps_the_queue_until_a_completion_matures(self):
        processor = self.processor()
        slow = processor.fu("slow0")
        slow.write("t", 4, cycle=0)  # ready in cycle 3
        queue = slow._pending
        for cycle in (1, 2):
            slow.commit(cycle)
            assert slow._pending is queue
            assert processor.queued_units == {"slow0"}
            assert slow.ports["r"].valid_from_cycle == 3
        slow.commit(3)
        assert slow._pending == []
        assert processor.queued_units == set()
        assert slow.ports["r"].value == 5

    def test_default_table1_rebuilds_a_queue_only_when_one_matures(
            self, monkeypatch):
        # the commit step visits a CAM unit in every cycle of its
        # search; only the cycle its completion matures in changes it
        from repro import api

        commit = FunctionalUnit.commit
        calls, idle, rebuilt = [0], [0], [0]

        def watched_commit(fu, cycle):
            queue = fu._pending
            matures = any(ready <= cycle for ready, _, _ in queue)
            commit(fu, cycle)
            calls[0] += 1
            idle[0] += not matures
            rebuilt[0] += fu._pending is not queue
            assert matures == (fu._pending is not queue)

        monkeypatch.setattr(FunctionalUnit, "commit", watched_commit)
        api.table1(backend="interpreter")
        assert (calls[0], idle[0], rebuilt[0]) == (780, 528, 252)

    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    def test_a_finished_machine_is_freed_without_the_cycle_collector(
            self, backend):
        # a set holding FUs that hold the set would keep every dropped
        # machine alive until the cyclic collector runs
        routes = generate_routes(12)
        config = table1_grid(())[-1].with_cam_latency(13)
        gc.collect()
        gc.disable()
        try:
            result = run_forwarding(
                config, routes, worst_case_workload(routes, 3),
                options=RunOptions(backend=backend))
            assert result.report.halted
            processor = weakref.ref(result.machine.processor)
            rtu = weakref.ref(result.machine.processor.fu("rtu0"))
            del result
            assert processor() is None and rtu() is None
        finally:
            gc.enable()
