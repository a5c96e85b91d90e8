"""Hazard detector and runaway-loop diagnosis."""

import pytest

from repro.errors import CycleBudgetError, SimulationError
from repro.tta import (
    DataMemory,
    Guard,
    HazardDetector,
    Immediate,
    Instruction,
    Interconnect,
    Move,
    PortKind,
    PortRef,
    ProgramMemory,
    RegisterFileUnit,
    Simulator,
    TacoProcessor,
    loop_signature,
    nop,
)
from repro.tta.fu import FunctionalUnit
from repro.tta.fus import Counter
from repro.tta.hazards import MAX_HAZARDS

P = PortRef
I = Immediate


class SlowUnit(FunctionalUnit):
    """Pipelined 3-cycle unit: re-triggering while busy is legal but lossy."""

    kind = "slow"
    latency = 3

    def _declare_ports(self):
        self.add_port("t", PortKind.TRIGGER)
        self.add_port("r", PortKind.RESULT)

    def _execute(self, trigger_port, value, cycle):
        self.finish(cycle, {"r": value + 1})


class AccumulatorUnit(FunctionalUnit):
    """Deposits its result into a move-writable REGISTER port."""

    kind = "acc"
    latency = 2

    def _declare_ports(self):
        self.add_port("t", PortKind.TRIGGER)
        self.add_port("acc", PortKind.REGISTER)

    def _execute(self, trigger_port, value, cycle):
        self.finish(cycle, {"acc": value})


def make_processor(extra=()):
    return TacoProcessor(
        Interconnect(bus_count=2),
        [Counter("cnt0"), RegisterFileUnit("gpr", 8), *extra],
        data_memory=DataMemory(64))


def run_with_detector(processor, instructions, max_cycles=1000):
    program = ProgramMemory([
        *instructions,
        Instruction.of([Move(I(0), P("nc", "halt"))], processor.bus_count),
    ])
    processor.reset()
    simulator = Simulator(processor, program)
    detector = HazardDetector(processor)
    detector.attach(simulator)
    simulator.run(max_cycles=max_cycles)
    return detector, simulator


class TestLoopSignature:
    def test_periodic_suffix_detected(self):
        signature = loop_signature([1, 2, 3, 1, 2, 3, 1, 2, 3])
        assert signature is not None
        assert signature.pcs == (1, 2, 3)
        assert signature.period == 3
        assert signature.repeats == 3

    def test_tight_spin_is_period_one(self):
        signature = loop_signature([5, 5, 5, 5])
        assert signature.pcs == (5,)
        assert signature.period == 1
        assert signature.repeats == 4

    def test_aperiodic_history_is_none(self):
        assert loop_signature([1, 2, 3, 4, 5]) is None
        assert loop_signature([3]) is None
        assert loop_signature([]) is None

    def test_non_repeating_prefix_ignored(self):
        signature = loop_signature([9, 4, 1, 2, 1, 2, 1, 2])
        assert signature.pcs == (1, 2)
        assert signature.repeats == 3

    def test_render(self):
        signature = loop_signature([1, 2, 1, 2, 1, 2])
        assert signature.render() == \
            "pc loop [1->2] (period 2, x3 in the last window)"


class TestReadNeverWritten:
    def test_unwritten_register_read_flagged(self):
        processor = make_processor()
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0"))], 2),
        ])
        assert detector.report.by_kind() == {"read-never-written": 1}
        hazard = detector.report.hazards[0]
        assert hazard.fu == "gpr" and hazard.port == "r5"
        assert "reset value" in hazard.render()

    def test_written_register_read_clean(self):
        processor = make_processor()
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(7), P("gpr", "r0"))], 2),
            Instruction.of([Move(P("gpr", "r0"), P("gpr", "r1"))], 2),
        ])
        assert not detector.report

    def test_same_cycle_write_does_not_satisfy_read(self):
        # reads see start-of-cycle state: a register first written in this
        # very cycle is still unwritten from the reading move's view
        processor = make_processor()
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(1), P("gpr", "r0")),
                            Move(P("gpr", "r0"), P("gpr", "r1"))], 2),
        ])
        assert detector.report.by_kind() == {"read-never-written": 1}

    def test_squashed_move_not_flagged(self):
        processor = make_processor()
        detector, simulator = run_with_detector(processor, [
            # cnt0's result bit is False after reset: the guard squashes
            # the read of the unwritten register
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0"),
                                 Guard("cnt0"))], 2),
        ])
        assert simulator.report.moves_squashed == 1
        assert not detector.report


class TestTriggerInFlight:
    def test_retrigger_while_busy_flagged(self):
        processor = make_processor(extra=[SlowUnit("slow0")])
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(1), P("slow0", "t"))], 2),
            Instruction.of([Move(I(2), P("slow0", "t"))], 2),
        ])
        assert detector.report.by_kind() == {"trigger-in-flight": 1}
        assert "latency 3" in detector.report.hazards[0].detail

    def test_spaced_triggers_clean(self):
        processor = make_processor(extra=[SlowUnit("slow0")])
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(1), P("slow0", "t"))], 2),
            nop(2),
            nop(2),
            Instruction.of([Move(I(2), P("slow0", "t"))], 2),
        ])
        assert not detector.report


class TestConflictingWrite:
    def test_move_racing_result_commit_flagged(self):
        processor = make_processor(extra=[AccumulatorUnit("acc0")])
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(5), P("acc0", "t"))], 2),
            nop(2),
            # the 2-cycle operation matures into acc this very cycle
            Instruction.of([Move(I(9), P("acc0", "acc"))], 2),
        ])
        assert detector.report.by_kind() == {"conflicting-write": 1}
        hazard = detector.report.hazards[0]
        assert hazard.fu == "acc0" and hazard.port == "acc"

    def test_write_after_commit_cycle_clean(self):
        processor = make_processor(extra=[AccumulatorUnit("acc0")])
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(I(5), P("acc0", "t"))], 2),
            nop(2),
            nop(2),
            Instruction.of([Move(I(9), P("acc0", "acc"))], 2),
        ])
        assert not detector.report


class TestRunawayDiagnosis:
    def test_budget_error_carries_loop_signature(self):
        processor = make_processor()
        program = ProgramMemory([
            nop(2),
            Instruction.of([Move(I(0), P("nc", "pc"))], 2),
        ])
        processor.reset()
        simulator = Simulator(processor, program)
        with pytest.raises(CycleBudgetError) as err:
            simulator.run(max_cycles=60)
        exc = err.value
        assert exc.cycles == 60
        assert exc.loop is not None
        assert exc.loop.period == 2
        assert set(exc.loop.pcs) == {0, 1}
        assert "did not halt within 60 cycles" in str(exc)
        assert "pc loop [" in str(exc)

    def test_budget_error_is_a_simulation_error(self):
        # campaign-unaware callers that catch SimulationError keep working
        assert issubclass(CycleBudgetError, SimulationError)


class TestDetectorWiring:
    def test_chains_existing_move_hook(self):
        processor = make_processor()
        program = ProgramMemory([
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0"))], 2),
            Instruction.of([Move(I(0), P("nc", "halt"))], 2),
        ])
        processor.reset()
        simulator = Simulator(processor, program)
        seen = []
        simulator.move_hook = \
            lambda cycle, pc, bus, move, value: seen.append((cycle, pc))
        detector = HazardDetector(processor)
        detector.attach(simulator)
        simulator.run()
        assert seen  # the original observer still fires
        assert detector.report.by_kind() == {"read-never-written": 1}

    def test_counts_mirrored_into_simulation_report(self):
        processor = make_processor()
        detector, simulator = run_with_detector(processor, [
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0"))], 2),
        ])
        assert simulator.report.hazards == detector.report.by_kind()
        assert "hazard read-never-written: 1" in simulator.report.summary()

    def test_truncation_at_max_hazards(self):
        # two unwritten-register reads per instruction, one past the cap
        processor = make_processor()
        detector, simulator = run_with_detector(processor, [
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0")),
                            Move(P("gpr", "r6"), P("gpr", "r1"))], 2),
        ] * (MAX_HAZARDS // 2 + 1))
        assert len(detector.report.hazards) == MAX_HAZARDS
        assert detector.report.truncated
        assert "(truncated)" in detector.report.render()
        assert simulator.report.hazards == {"read-never-written": MAX_HAZARDS}

    def test_report_render(self):
        processor = make_processor()
        detector, _ = run_with_detector(processor, [
            Instruction.of([Move(P("gpr", "r5"), P("gpr", "r0"))], 2),
        ])
        text = detector.report.render()
        assert "1 hazard(s)" in text and "read-never-written" in text
        clean = HazardDetector(make_processor())
        assert clean.report.render() == "no hazards detected"


class TestForwardingIntegration:
    def test_generated_programs_are_hazard_free(self):
        from repro.dse import ArchitectureConfiguration, ArchitectureEvaluator
        evaluator = ArchitectureEvaluator(table_entries=20, packet_batch=4,
                                          detect_hazards=True)
        result = evaluator.evaluate(ArchitectureConfiguration(
            bus_count=3, table_kind="sequential"))
        assert result.run.hazard_report is not None
        assert not result.run.hazard_report.hazards

    def test_hazard_summary_rendering(self):
        from repro.reporting import render_hazard_summary
        assert render_hazard_summary({}) == "hazards: none detected"
        assert render_hazard_summary(None) == "hazards: none detected"
        assert render_hazard_summary({"b": 1, "a": 2}) == "hazards: a=2, b=1"

    def test_cli_evaluate_reports_hazards(self, capsys):
        from repro.cli import main
        rc = main(["evaluate", "--buses", "3", "--table", "sequential",
                   "--entries", "20", "--hazards"])
        assert rc == 0
        assert "no hazards detected" in capsys.readouterr().out
