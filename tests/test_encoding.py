"""Binary instruction encoding: exact round trips and format geometry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import ProgramBuilder, assemble
from repro.asm.encoding import EncodingScheme
from repro.dse.config import ArchitectureConfiguration
from repro.errors import AssemblyError
from repro.programs.forwarding import build_forwarding_program
from repro.programs.machine import build_machine
from repro.tta import (
    DataMemory,
    Guard,
    Immediate,
    Instruction,
    Interconnect,
    Move,
    PortRef,
    RegisterFileUnit,
    TacoProcessor,
)
from repro.tta.fus import Comparator, Counter
from repro.workload import generate_routes

P = PortRef


@pytest.fixture(scope="module")
def processor():
    return TacoProcessor(
        Interconnect(bus_count=2),
        [Counter("cnt0"), Comparator("cmp0"), RegisterFileUnit("gpr", 4)],
        data_memory=DataMemory(64))


@pytest.fixture(scope="module")
def scheme(processor):
    return EncodingScheme.for_processor(processor)


class TestFormatGeometry:
    def test_field_widths_cover_the_namespace(self, scheme):
        assert (1 << scheme.destination_bits) > len(scheme.destinations)
        assert (1 << scheme.guard_bits) >= len(scheme.guards)
        assert scheme.source_bits >= 33  # immediate flag + 32-bit literal

    def test_unconditional_guard_is_code_zero(self, scheme):
        assert scheme.guards[0] is None

    def test_bigger_machines_need_wider_slots(self):
        small = EncodingScheme.for_processor(
            build_machine(ArchitectureConfiguration(bus_count=1)).processor)
        large = EncodingScheme.for_processor(
            build_machine(ArchitectureConfiguration(
                bus_count=1, matchers=3, counters=3,
                comparators=3)).processor)
        assert large.destination_bits >= small.destination_bits
        assert large.slot_bits >= small.slot_bits

    def test_program_bytes(self, scheme):
        per_word = (scheme.instruction_bits + 7) // 8
        assert scheme.program_bytes(10) == 10 * per_word


class TestMoveRoundTrip:
    def test_idle_slot(self, scheme):
        assert scheme.decode_move(scheme.encode_move(None)) is None

    @pytest.mark.parametrize("move", [
        Move(Immediate(0), P("cnt0", "o")),
        Move(Immediate(0xFFFFFFFF), P("cnt0", "t_add")),
        Move(P("cnt0", "r"), P("gpr", "r0")),
        Move(P("gpr", "r3"), P("nc", "pc"), guard=Guard("cmp0")),
        Move(Immediate(7), P("nc", "halt"), guard=Guard("cnt0", True)),
    ])
    def test_representative_moves(self, scheme, move):
        assert scheme.decode_move(scheme.encode_move(move)) == move

    def test_unknown_port_rejected(self, scheme):
        with pytest.raises(AssemblyError):
            scheme.encode_move(Move(Immediate(1), P("ghost", "t")))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_moves_round_trip(self, scheme, data):
        source = data.draw(st.one_of(
            st.sampled_from(scheme.sources),
            st.integers(min_value=0,
                        max_value=0xFFFFFFFF).map(Immediate)))
        destination = data.draw(st.sampled_from(scheme.destinations))
        guard = data.draw(st.sampled_from(scheme.guards))
        move = Move(source=source, destination=destination, guard=guard)
        assert scheme.decode_move(scheme.encode_move(move)) == move


class TestProgramRoundTrip:
    def test_hand_program(self, processor, scheme):
        b = ProgramBuilder()
        b.block("entry")
        b.move(5, P("cnt0", "o"))
        b.move(1, P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r1"))
        b.jump("entry", guard=Guard("cmp0"))
        b.halt()
        program = assemble(b.build(), processor, optimize_code=False)
        words = [scheme.encode_instruction(i) for i in program]
        decoded = [scheme.decode_instruction(w) for w in words]
        assert decoded == list(program)
        assert all(0 <= w < (1 << scheme.instruction_bits) for w in words)

    @pytest.mark.parametrize("kind", ["sequential", "balanced-tree", "cam"])
    def test_generated_forwarding_programs_encode(self, kind):
        config = ArchitectureConfiguration(bus_count=3, table_kind=kind)
        machine = build_machine(config)
        machine.load_routes(generate_routes(20, seed=2))
        program = build_forwarding_program(machine)
        scheme = EncodingScheme.for_processor(machine.processor)
        words = [scheme.encode_instruction(i) for i in program]
        decoded = [scheme.decode_instruction(w) for w in words]
        assert decoded == list(program)
        # the whole router program fits in a small on-chip store
        assert scheme.program_bytes(len(program)) < 8192
