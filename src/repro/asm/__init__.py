"""TACO assembly toolchain: IR, optimiser, bus scheduler, assembler."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".assembler": ("assemble", "format_program"),
    ".encoding": ("EncodingScheme",),
    ".ir": ("BasicBlock", "IrProgram", "ProgramBuilder", "SymbolicMove"),
    ".optimizer": ("optimize",),
    ".scheduler": ("BusScheduler", "ScheduledBlock", "ScheduledProgram",
                   "instructions_from_schedule"),
})
