"""TACO assembly toolchain: IR, optimiser, bus scheduler, assembler."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".assembler": ("assemble", "format_ir", "format_program",
                   "parse_assembly"),
    ".encoding": ("EncodingScheme", "decode_program", "describe_format",
                  "encode_program"),
    ".ir": ("BasicBlock", "IrProgram", "ProgramBuilder", "SymbolicMove",
            "sequential_moves"),
    ".optimizer": ("bypass", "eliminate_dead_writes", "optimize",
                   "share_operands"),
    ".scheduler": ("BusScheduler", "ScheduledBlock", "ScheduledProgram",
                   "instructions_from_schedule"),
})
