"""Regression tests for the measurement-correctness bugfix sweep.

Each class pins one fixed reporting bug: lossy
``SimulationReport.merge``, silently truncated execution traces, and
broken ``move_hook`` chaining claims. (The
journal-corruption fix is pinned in ``test_campaign.py``.)
"""

import pytest

from repro.asm import ProgramBuilder, assemble
from repro.tta import (
    DataMemory,
    Guard,
    HazardDetector,
    Interconnect,
    PortRef,
    RegisterFileUnit,
    TacoProcessor,
)
from repro.tta.fus import Comparator, Counter
from repro.tta.stats import SimulationReport
from repro.tta.trace import TracingSimulator, trace_program

P = PortRef


def make_processor(buses=2):
    return TacoProcessor(
        Interconnect(bus_count=buses),
        [Counter("cnt0"), Comparator("cmp0"), RegisterFileUnit("gpr", 4)],
        data_memory=DataMemory(64))


def build_loop_ir():
    b = ProgramBuilder()
    b.block("entry")
    b.move(3, P("cnt0", "o_stop"))
    b.move(0, P("cnt0", "t_inc"))
    b.block("loop")
    b.move(P("cnt0", "r"), P("cnt0", "t_inc"))
    b.jump("loop", guard=Guard("cnt0", negate=True))
    b.halt()
    return b.build()


class TestReportMergePreservesState:
    def test_halted_is_sticky_in_both_directions(self):
        halted = SimulationReport(halted=True)
        fresh = SimulationReport(halted=False)
        assert halted.merge(fresh).halted
        assert fresh.merge(halted).halted
        assert not fresh.merge(SimulationReport()).halted

    def test_empty_accumulator_adopts_bus_layout(self):
        accumulator = SimulationReport()
        run = SimulationReport(bus_busy_cycles=[3, 1, 2])
        merged = accumulator.merge(run)
        assert merged.bus_busy_cycles == [3, 1, 2]

    def test_empty_other_keeps_bus_layout(self):
        run = SimulationReport(bus_busy_cycles=[3, 1, 2])
        merged = run.merge(SimulationReport())
        assert merged.bus_busy_cycles == [3, 1, 2]

    def test_bus_count_mismatch_raises_even_at_zero_cycles(self):
        two = SimulationReport(bus_busy_cycles=[0, 0])
        three = SimulationReport(bus_busy_cycles=[0, 0, 0])
        with pytest.raises(ValueError, match="bus counts"):
            two.merge(three)

    def test_busy_cycles_accumulate_when_layouts_match(self):
        a = SimulationReport(bus_busy_cycles=[1, 2])
        b = SimulationReport(bus_busy_cycles=[10, 20])
        assert a.merge(b).bus_busy_cycles == [11, 22]


class TestTraceTruncationIsVisible:
    def run_capped(self, cap):
        processor = make_processor()
        program = assemble(build_loop_ir(), processor, optimize_code=False)
        processor.reset()
        simulator = TracingSimulator(processor, program,
                                     max_trace_cycles=cap)
        simulator.run()
        return simulator

    def test_complete_trace_is_not_marked_truncated(self):
        processor = make_processor()
        program = assemble(build_loop_ir(), processor, optimize_code=False)
        _, tracer = trace_program(processor, program)
        assert not tracer.truncated
        assert tracer.dropped_cycles == 0
        assert "truncated" not in tracer.render()

    def test_dropped_cycles_counted_exactly(self):
        full = self.run_capped(100_000)
        capped = self.run_capped(2)
        assert capped.truncated
        assert len(capped.trace) == 2
        assert capped.dropped_cycles == len(full.trace) - 2

    def test_render_appends_truncation_marker(self):
        capped = self.run_capped(2)
        rendered = capped.render()
        assert rendered.splitlines()[-1] == (
            f"... trace truncated: {capped.dropped_cycles} later "
            f"cycle(s) not recorded (max_trace_cycles=2)")

    def test_marker_omitted_for_interior_windows(self):
        capped = self.run_capped(2)
        # a window that ends before the recorded trace does is not a view
        # of the truncation point, so no marker
        assert "truncated" not in capped.render(0, 1)
        assert "truncated" in capped.render(1)  # open-ended window


class TestHookChaining:
    def test_hazard_detector_preserves_the_trace_hook(self):
        """attach() on a TracingSimulator keeps both observers: every
        move reaches the trace hook first, then the detector."""
        processor = make_processor()
        program = assemble(build_loop_ir(), processor, optimize_code=False)
        processor.reset()
        simulator = TracingSimulator(processor, program)

        calls = []
        record = simulator.move_hook

        def spy_trace(cycle, pc, bus, move, value):
            calls.append(("trace", cycle, str(move)))
            record(cycle, pc, bus, move, value)

        simulator.move_hook = spy_trace
        detector = HazardDetector(processor)
        on_move = detector.on_move

        def spy_hazard(cycle, pc, bus, move, value):
            calls.append(("hazard", cycle, str(move)))
            on_move(cycle, pc, bus, move, value)

        detector.on_move = spy_hazard
        detector.attach(simulator)
        report = simulator.run()

        total = report.moves_executed + report.moves_squashed
        assert total > 0
        # completeness: both observers saw every single move
        assert len(calls) == 2 * total
        # order: strict trace-then-hazard alternation on the same move
        for traced, hazarded in zip(calls[::2], calls[1::2]):
            assert traced[0] == "trace" and hazarded[0] == "hazard"
            assert traced[1:] == hazarded[1:]
        # and both observers actually did their jobs
        recorded = sum(len(c.moves) for c in simulator.trace)
        assert recorded == total
        assert len(detector.pc_history) > 0
