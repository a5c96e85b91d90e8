"""Cycle-accurate model of TACO transport-triggered protocol processors.

The model mirrors the paper's SystemC simulation environment: functional
units exchange 32-bit words over an interconnection network of data buses
under control of the network controller; the only instruction is a
(possibly guarded) move. Simulating a program yields the total cycle count
and bus/FU utilisation used by the design-space exploration in
:mod:`repro.dse`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bus": ("Bus", "Interconnect"),
    ".controller": ("HALT_PORT", "NC_NAME", "PC_PORT", "NetworkController"),
    ".devices": ("SLOT_HEADER_WORDS", "SlotPool"),
    ".fu": ("FunctionalUnit", "RegisterFileUnit"),
    ".instruction": ("Instruction", "Move", "nop"),
    ".memory": ("DataMemory", "ProgramMemory"),
    ".ports": ("Guard", "Immediate", "Port", "PortKind", "PortRef",
               "WORD_MASK", "truncate"),
    ".hazards": ("Hazard", "HazardDetector", "HazardReport", "LoopSignature",
                 "loop_signature"),
    ".processor": ("TacoProcessor",),
    ".simulator": ("DEFAULT_MAX_CYCLES", "Simulator", "simulate"),
    ".stats": ("SimulationReport",),
    ".compiled": ("CompiledSimulator", "compile_program"),
    ".backends": ("BACKEND_AUTO", "BACKEND_COMPILED", "BACKEND_INTERPRETER",
                  "BACKENDS", "DEFAULT_BACKEND", "create_simulator",
                  "resolve_backend_name"),
    ".trace": ("TracingSimulator", "trace_program"),
})
