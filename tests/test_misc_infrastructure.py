"""Remaining infrastructure: memories, reports, machine builder, CLI."""

import collections

import pytest

from repro.cli import main
from repro.dse.config import ArchitectureConfiguration
from repro.errors import SimulationError, TtaError
from repro.programs.machine import build_machine
from repro.routing import make_table
from repro.tta.memory import DataMemory, ProgramMemory
from repro.tta.instruction import Instruction, Move, nop
from repro.tta.ports import Immediate, PortRef
from repro.tta.stats import SimulationReport


class TestDataMemory:
    def test_byte_round_trip_with_padding(self):
        memory = DataMemory(64)
        memory.write_bytes(4, b"hello world")  # 11 bytes: pads to 12
        assert memory.read_bytes(4, 11) == b"hello world"
        assert memory.load(4) == int.from_bytes(b"hell", "big")

    def test_access_counters(self):
        memory = DataMemory(16)
        memory.store(0, 1)
        memory.load(0)
        memory.load(0)
        assert (memory.reads, memory.writes) == (2, 1)

    def test_bounds(self):
        memory = DataMemory(8)
        with pytest.raises(SimulationError):
            memory.load(8)
        with pytest.raises(SimulationError):
            memory.store(-1, 0)
        with pytest.raises(TtaError):
            DataMemory(0)

    def test_values_truncated_to_word(self):
        memory = DataMemory(8)
        memory.store(0, 0x1_2345_6789)
        assert memory.load(0) == 0x2345_6789


class TestProgramMemory:
    def test_width_consistency_enforced(self):
        with pytest.raises(TtaError):
            ProgramMemory([nop(2), nop(3)])
        with pytest.raises(TtaError):
            ProgramMemory([])

    def test_fetch_bounds(self):
        program = ProgramMemory([nop(1)])
        with pytest.raises(SimulationError):
            program.fetch(5)

    def test_iteration(self):
        move = Move(Immediate(1), PortRef("gpr", "r0"))
        program = ProgramMemory([Instruction.of([move], 2), nop(2)])
        assert len(list(program)) == len(program) == 2


class TestSimulationReport:
    def test_utilization_and_summary(self):
        report = SimulationReport(cycles=10, moves_executed=12,
                                  bus_busy_cycles=[10, 2],
                                  fu_triggers={"cnt0": 5})
        assert report.bus_utilization == pytest.approx(12 / 20)
        assert report.per_bus_utilization() == [1.0, 0.2]
        assert "bus utilisation" in report.summary()

    def test_empty_report(self):
        report = SimulationReport()
        assert report.bus_utilization == 0.0
        assert report.per_bus_utilization() == []


class TestMachineBuilder:
    def test_fu_inventory_matches_config(self):
        config = ArchitectureConfiguration(
            bus_count=2, matchers=3, counters=2, comparators=1,
            table_kind="cam")
        machine = build_machine(config)
        kinds = collections.Counter(
            fu.kind for fu in machine.processor.fus.values())
        assert kinds["matcher"] == 3
        assert kinds["counter"] == 2
        assert kinds["comparator"] == 1
        assert kinds["mmu"] == 1
        assert machine.processor.bus_count == 2

    def test_table_kind_mismatch_rejected(self):
        config = ArchitectureConfiguration(bus_count=1, table_kind="cam")
        with pytest.raises(ValueError):
            build_machine(config, table=make_table("sequential"))

    def test_repr_is_informative(self):
        machine = build_machine(ArchitectureConfiguration(bus_count=1))
        text = repr(machine.processor)
        assert "1 buses" in text or "1 bus" in text
        assert "matcher" in text


class TestCliFull:
    def test_table1_command(self, capsys):
        assert main(["table1", "--entries", "40", "--packets", "5"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out
        assert "shape checks passed" in out

    def test_explore_command(self, capsys):
        assert main(["explore", "--max-power", "25"]) == 0
        out = capsys.readouterr().out
        assert "selected:" in out

    def test_explore_infeasible_budget(self, capsys):
        assert main(["explore", "--max-power", "0.001"]) == 1
        assert "no configuration" in capsys.readouterr().out
