"""Cycle-accurate model of TACO transport-triggered protocol processors.

The model mirrors the paper's SystemC simulation environment: functional
units exchange 32-bit words over an interconnection network of data buses
under control of the network controller; the only instruction is a
(possibly guarded) move. Simulating a program yields the total cycle count
and bus/FU utilisation used by the design-space exploration in
:mod:`repro.dse`.
"""

from repro.tta.bus import Bus, Interconnect
from repro.tta.controller import HALT_PORT, NC_NAME, PC_PORT, NetworkController
from repro.tta.devices import SLOT_HEADER_WORDS, SlotPool
from repro.tta.fu import FunctionalUnit, RegisterFileUnit
from repro.tta.instruction import Instruction, Move, nop
from repro.tta.memory import DataMemory, ProgramMemory
from repro.tta.ports import (
    Guard,
    Immediate,
    Port,
    PortKind,
    PortRef,
    WORD_MASK,
    truncate,
)
from repro.tta.hazards import (
    Hazard,
    HazardDetector,
    HazardReport,
    LoopSignature,
    loop_signature,
)
from repro.tta.processor import TacoProcessor
from repro.tta.simulator import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_RUN_MAX_CYCLES,
    Simulator,
    simulate,
)
from repro.tta.stats import SimulationReport
from repro.tta.compiled import CompiledSimulator, compile_program
from repro.tta.backends import (
    BACKEND_AUTO,
    BACKEND_COMPILED,
    BACKEND_INTERPRETER,
    BACKENDS,
    DEFAULT_BACKEND,
    create_simulator,
    resolve_backend_name,
)
from repro.tta.trace import TracingSimulator, trace_program

__all__ = [
    "Hazard", "HazardDetector", "HazardReport", "LoopSignature",
    "loop_signature",
    "Bus", "Interconnect",
    "NetworkController", "NC_NAME", "PC_PORT", "HALT_PORT",
    "SlotPool", "SLOT_HEADER_WORDS",
    "FunctionalUnit", "RegisterFileUnit",
    "Instruction", "Move", "nop",
    "DataMemory", "ProgramMemory",
    "Guard", "Immediate", "Port", "PortKind", "PortRef",
    "WORD_MASK", "truncate",
    "TacoProcessor",
    "Simulator", "simulate", "SimulationReport", "DEFAULT_MAX_CYCLES",
    "DEFAULT_RUN_MAX_CYCLES",
    "CompiledSimulator", "compile_program",
    "BACKENDS", "create_simulator", "resolve_backend_name",
    "BACKEND_AUTO", "BACKEND_COMPILED", "BACKEND_INTERPRETER",
    "DEFAULT_BACKEND",
    "TracingSimulator", "trace_program",
]
