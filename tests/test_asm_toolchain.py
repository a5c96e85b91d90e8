"""Assembly toolchain: IR, scheduler, optimiser (paper Fig. 3)."""

import pytest

from repro.asm import (
    BusScheduler,
    IrProgram,
    ProgramBuilder,
    assemble,
    format_program,
)
from repro.asm.ir import BasicBlock, SymbolicMove
from repro.asm.scheduler import instructions_from_schedule
from repro.errors import AssemblyError
from repro.tta import (
    DataMemory,
    Guard,
    Immediate,
    Interconnect,
    PortRef,
    ProgramMemory,
    RegisterFileUnit,
    TacoProcessor,
    simulate,
)
from repro.tta.fus import Comparator, Counter, Masker, Shifter

P = PortRef


def make_processor(buses=3):
    return TacoProcessor(
        Interconnect(bus_count=buses),
        [Counter("cnt0"), Shifter("shf0"), Comparator("cmp0"),
         Masker("msk0"), RegisterFileUnit("gpr", 8)],
        data_memory=DataMemory(256))


def fig3_ir():
    """a = (b*2 + c) / 4 with explicit temporaries, as in Fig. 3 left."""
    b = ProgramBuilder()
    b.block("entry")
    b.move(7, P("gpr", "r1"))                      # R1 = b
    b.move(10, P("gpr", "r3"))                     # R3 = c
    b.move(1, P("shf0", "o"))
    b.move(P("gpr", "r1"), P("shf0", "t_sll"))     # R5 = b * 2
    b.move(P("shf0", "r"), P("gpr", "r5"))
    b.move(P("gpr", "r3"), P("cnt0", "o"))
    b.move(P("gpr", "r5"), P("cnt0", "t_add"))     # R6 = R5 + c
    b.move(P("cnt0", "r"), P("gpr", "r6"))
    b.move(2, P("shf0", "o"))
    b.move(P("gpr", "r6"), P("shf0", "t_srl"))     # R7 = R6 / 4
    b.move(P("shf0", "r"), P("gpr", "r7"))
    b.halt()
    return b.build()


FIG3_TEMPS = [P("gpr", f"r{i}") for i in (1, 3, 5, 6)]


class TestBuilderAndParser:
    def test_builder_requires_block(self):
        b = ProgramBuilder()
        with pytest.raises(AssemblyError):
            b.move(1, P("gpr", "r0"))

    def test_duplicate_labels_rejected(self):
        b = ProgramBuilder()
        b.block("x")
        with pytest.raises(AssemblyError):
            b.block("x")

    def test_symbolic_move_needs_source_xor_label(self):
        with pytest.raises(AssemblyError):
            SymbolicMove(destination=P("nc", "pc"))
        with pytest.raises(AssemblyError):
            SymbolicMove(destination=P("nc", "pc"), source=Immediate(1),
                         label_target="x")

    def test_undefined_label_detected_at_assembly(self):
        b = ProgramBuilder()
        b.block("entry")
        b.jump("nowhere")
        with pytest.raises(AssemblyError):
            assemble(b.build(), make_processor())


class TestScheduler:
    @pytest.mark.parametrize("buses", [1, 2, 3, 4])
    def test_semantics_preserved_across_bus_counts(self, buses):
        processor = make_processor(buses)
        program = assemble(fig3_ir(), processor, optimize_code=False)
        simulate(processor, program)
        assert processor.fu("gpr").ports["r7"].value == 6

    def test_more_buses_never_slower(self):
        lengths = []
        for buses in (1, 2, 3):
            processor = make_processor(buses)
            program = assemble(fig3_ir(), processor, optimize_code=False)
            lengths.append(len(program))
        assert lengths[0] >= lengths[1] >= lengths[2]

    def test_schedule_length_lower_bound(self):
        # a 1-bus schedule can never be shorter than the move count
        processor = make_processor(1)
        ir = fig3_ir()
        schedule = BusScheduler(processor).schedule(ir)
        assert schedule.length() >= sum(len(b) for b in ir.blocks)

    def test_labels_map_to_block_starts(self):
        b = ProgramBuilder()
        b.block("first")
        b.move(1, P("gpr", "r0"))
        b.move(2, P("gpr", "r1"))
        b.block("second")
        b.halt()
        schedule = BusScheduler(make_processor(1)).schedule(b.build())
        labels = schedule.label_addresses()
        assert labels["first"] == 0
        assert labels["second"] == 2

    def test_connectivity_respected(self):
        interconnect = Interconnect(
            bus_count=2, connectivity={"cnt0": frozenset({1})})
        processor = TacoProcessor(
            interconnect, [Counter("cnt0"), RegisterFileUnit("gpr", 4)],
            data_memory=DataMemory(64))
        b = ProgramBuilder()
        b.block("entry")
        b.move(3, P("cnt0", "o"))
        b.move(4, P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r0"))
        b.halt()
        program = assemble(b.build(), processor, optimize_code=False)
        processor.validate_program(program)  # would raise on a bad bus
        simulate(processor, program)
        assert processor.fu("gpr").ports["r0"].value == 7

    def test_operand_rewrite_waits_for_trigger(self):
        # o is rewritten between two adds; results must use each value
        processor = make_processor(3)
        b = ProgramBuilder()
        b.block("entry")
        b.move(10, P("cnt0", "o"))
        b.move(1, P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r0"))    # 11
        b.move(20, P("cnt0", "o"))
        b.move(1, P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r1"))    # 21
        b.halt()
        program = assemble(b.build(), processor, optimize_code=False)
        simulate(processor, program)
        assert processor.fu("gpr").ports["r0"].value == 11
        assert processor.fu("gpr").ports["r1"].value == 21

    def test_guarded_fallthrough_order(self):
        # moves after a guarded jump must not execute when it is taken
        processor = make_processor(3)
        b = ProgramBuilder()
        b.block("entry")
        b.move(5, P("cmp0", "o"))
        b.move(3, P("cmp0", "t_lt"))              # 3 < 5: true
        b.jump("out", guard=Guard("cmp0"))
        b.move(0xBAD, P("gpr", "r0"))             # skipped when taken
        b.block("out")
        b.halt()
        program = assemble(b.build(), processor, optimize_code=False)
        simulate(processor, program)
        assert processor.fu("gpr").ports["r0"].value == 0


class TestOptimizer:
    def test_fig3_reduction(self):
        """The paper's headline: optimisation removes transport moves."""
        processor = make_processor(1)
        ir = fig3_ir()
        unoptimised = assemble(ir, processor, optimize_code=False)
        optimised = assemble(ir, processor, optimize_code=True,
                             temp_registers=FIG3_TEMPS)
        assert len(optimised) < len(unoptimised)
        simulate(processor, optimised)
        assert processor.fu("gpr").ports["r7"].value == 6

    @pytest.mark.parametrize("buses", [1, 2, 3])
    def test_optimised_code_is_equivalent(self, buses):
        processor = make_processor(buses)
        program = assemble(fig3_ir(), processor, optimize_code=True,
                           temp_registers=FIG3_TEMPS)
        simulate(processor, program)
        assert processor.fu("gpr").ports["r7"].value == 6

    def test_operand_sharing_drops_redundant_immediates(self):
        processor = make_processor(1)
        b = ProgramBuilder()
        b.block("entry")
        b.move(4, P("cnt0", "o"))
        b.move(1, P("cnt0", "t_add"))
        b.move(4, P("cnt0", "o"))      # redundant: latch already holds 4
        b.move(2, P("cnt0", "t_add"))
        b.move(P("cnt0", "r"), P("gpr", "r0"))
        b.halt()
        opt = assemble(b.build(), processor, optimize_code=True)
        unopt = assemble(b.build(), processor, optimize_code=False)
        assert len(opt) == len(unopt) - 1
        simulate(processor, opt)
        assert processor.fu("gpr").ports["r0"].value == 6

    def test_guarded_writes_not_eliminated(self):
        processor = make_processor(1)
        b = ProgramBuilder()
        b.block("entry")
        b.move(5, P("cmp0", "o"))
        b.move(9, P("cmp0", "t_lt"))  # false
        b.move(1, P("gpr", "r0"))
        b.move(2, P("gpr", "r0"), guard=Guard("cmp0"))  # must survive
        b.move(P("gpr", "r0"), P("gpr", "r1"))
        b.halt()
        program = assemble(b.build(), processor, optimize_code=True,
                           temp_registers=[P("gpr", "r0")])
        simulate(processor, program)
        assert processor.fu("gpr").ports["r1"].value == 1


class TestFormatting:
    def test_format_program_shows_slots(self):
        processor = make_processor(2)
        program = assemble(fig3_ir(), processor, optimize_code=False)
        text = format_program(program)
        assert "->" in text
        assert "0:" in text

    def test_empty_ir_rejected(self):
        with pytest.raises(AssemblyError):
            ProgramBuilder().build()

    def test_duplicate_block_label_in_ir(self):
        with pytest.raises(AssemblyError):
            IrProgram(blocks=[BasicBlock("a"), BasicBlock("a")])
