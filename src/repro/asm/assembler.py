"""Top-level assembly pipeline: IR → (optimise) → schedule → program image.

:func:`format_program` renders the scheduled instruction stream as text.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.asm.ir import IrProgram
from repro.asm.optimizer import optimize
from repro.asm.scheduler import BusScheduler, instructions_from_schedule
from repro.errors import AssemblyError
from repro.tta.memory import ProgramMemory
from repro.tta.ports import PortRef
from repro.tta.processor import TacoProcessor


def assemble(program: IrProgram, processor: TacoProcessor,
             optimize_code: bool = True,
             temp_registers: Iterable[PortRef] = ()) -> ProgramMemory:
    """The full pipeline the paper sketches in Fig. 3."""
    if optimize_code:
        program = optimize(program, processor, temp_registers=temp_registers)
    scheduler = BusScheduler(processor)
    schedule = scheduler.schedule(program)
    instructions = instructions_from_schedule(schedule)
    if not instructions:
        raise AssemblyError("program scheduled to zero instructions")
    return ProgramMemory(instructions)


def format_program(program: ProgramMemory,
                   labels: Optional[Dict[str, int]] = None) -> str:
    """Disassemble a scheduled program, one instruction (cycle) per line."""
    address_labels: Dict[int, str] = {}
    if labels:
        for name, address in labels.items():
            address_labels[address] = name
    lines = []
    for address, instruction in enumerate(program):
        if address in address_labels:
            lines.append(f"{address_labels[address]}:")
        lines.append(f"  {address:4d}: {instruction}")
    return "\n".join(lines) + "\n"
