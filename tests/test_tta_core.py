"""TTA core semantics: ports, triggers, latency, guards, control flow."""

import pytest

from repro.errors import (
    ConfigurationError,
    SimulationError,
    TtaError,
)
from repro.tta import (
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
from repro.tta.fu import FunctionalUnit
from repro.tta.fus import Comparator, Counter, Shifter

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
        assert nop(3).is_nop()
        assert nop(3).used_slots() == 0


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
        sim.run_cycles(2)
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
        sim.run_cycles(1)
        assert processor.fu("tick0")._pending
        sim.run()
        assert processor.fu("gpr").ports["r0"].value == 1

    def test_default_table1_queues_only_deferred_completions(self,
                                                             monkeypatch):
        # Every stock unit is latency 1, so only two kinds of completion
        # are queued: the CAM rows' searches, at the latency their clock
        # fixed point derives, and the result bit of the ticking oppu.
        from repro import api

        step = Simulator.step
        steps, pending = [0], set()

        def checked_step(sim):
            step(sim)
            steps[0] += 1
            pending.update(
                (fu.name, getattr(fu, "search_latency", fu.latency),
                 fu.overrides_tick and bit is not None)
                for fu in sim.processor.fus.values()
                for _ready, _results, bit in fu._pending)

        monkeypatch.setattr(Simulator, "step", checked_step)
        rows = api.table1(backend="interpreter")
        assert len(rows) == 9
        assert steps[0] > 0
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
            report = sim.run_cycles(k)
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
