"""Architecture description generator (the paper's design-tool role)."""

import pytest

from repro.cli import main
from repro.dse.config import ArchitectureConfiguration
from repro.programs.machine import build_machine
from repro.reporting import describe_machine, to_dot


@pytest.fixture(scope="module")
def machine():
    config = ArchitectureConfiguration(
        bus_count=3, matchers=3, counters=3, comparators=3,
        table_kind="balanced-tree")
    return build_machine(config)


class TestDatasheet:
    def test_lists_every_unit(self, machine):
        text = describe_machine(machine)
        for name in ("nc", "mmu0", "rtu0", "ippu0", "oppu0", "liu0",
                     "gpr", "mat0", "mat1", "mat2", "cnt2", "cmp2",
                     "shf0", "msk0", "cks0"):
            assert name in text

    def test_shows_interconnect_and_table(self, machine):
        text = describe_machine(machine)
        assert "3 x 32-bit" in text
        assert "balanced-tree" in text
        assert "line cards" in text

    def test_port_markers(self, machine):
        text = describe_machine(machine)
        assert "t[T]" in text       # matcher trigger
        assert "o_mask[o]" in text  # operand
        assert "r[r]" in text       # result


class TestDot:
    def test_valid_graph_structure(self, machine):
        dot = to_dot(machine)
        assert dot.startswith("digraph taco {")
        assert dot.rstrip().endswith("}")
        assert dot.count("bus0") >= 2
        assert "mat2" in dot
        assert "line card 3" in dot
        # every non-comment line inside the braces is a statement
        body = dot.splitlines()[1:-1]
        assert all(line.strip().endswith((";", "{", "}")) or
                   line.strip().endswith('";') for line in body)


class TestCli:
    def test_describe_text(self, capsys):
        assert main(["describe", "--buses", "2", "--table", "cam"]) == 0
        out = capsys.readouterr().out
        assert "2 x 32-bit" in out

    def test_describe_dot(self, capsys):
        assert main(["describe", "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")
