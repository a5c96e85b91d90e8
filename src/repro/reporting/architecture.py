"""Top-level architecture descriptions of TACO instances.

The TACO flow keeps three synchronized models (SystemC simulation, Matlab
estimation, VHDL synthesis) whose "top-level description files for a
given architecture can be automatically generated ... using a single
hardware design tool" [14]. This module is that generator's counterpart
for the Python model: given a configured machine it emits

* a human-readable datasheet (:func:`describe_machine`) — unit inventory,
  port maps, interconnect, memories;
* a Graphviz DOT rendering of Fig. 2 for the instance (:func:`to_dot`).
"""

from __future__ import annotations

from typing import List

from repro.programs.machine import RouterMachine
from repro.tta.ports import PortKind
from repro.tta.processor import TacoProcessor

_KIND_ORDER = ("nc", "mmu", "rtu", "ippu", "oppu", "liu", "gpr",
               "matcher", "counter", "comparator", "shifter", "masker",
               "checksum")


def _sorted_units(processor: TacoProcessor):
    def key(fu):
        try:
            rank = _KIND_ORDER.index(fu.kind)
        except ValueError:
            rank = len(_KIND_ORDER)
        return (rank, fu.name)

    return sorted(processor.fus.values(), key=key)


def describe_machine(machine: RouterMachine) -> str:
    """A textual datasheet for one architecture instance."""
    processor = machine.processor
    config = machine.config
    lines: List[str] = []
    lines.append(f"TACO architecture instance: {config.describe()}")
    lines.append("=" * len(lines[0]))
    lines.append("")
    lines.append(f"interconnection network: {processor.bus_count} x 32-bit "
                 f"data bus(es), fully connected sockets")
    lines.append(f"data memory:             {len(machine.memory)} words "
                 f"({len(machine.memory) * 4 // 1024} KiB)")
    lines.append(f"datagram slots:          {machine.slots.slot_count} x "
                 f"{machine.slots.slot_bytes} B at "
                 f"{machine.slots.base_word:#x}")
    lines.append(f"routing table:           {machine.table.kind}, capacity "
                 f"{machine.table.capacity}, image at "
                 f"{machine.rtu.base_word:#x}")
    lines.append(f"line cards:              {len(machine.line_cards)}")
    lines.append("")
    lines.append("functional units")
    lines.append("-" * 16)
    for fu in _sorted_units(processor):
        ports = []
        for name, port in fu.ports.items():
            marker = {PortKind.OPERAND: "o", PortKind.TRIGGER: "T",
                      PortKind.RESULT: "r", PortKind.REGISTER: "="}[port.kind]
            ports.append(f"{name}[{marker}]")
        latency = getattr(fu, "latency", 1)
        lines.append(f"  {fu.name:<6} ({fu.kind}, latency {latency}): "
                     + ", ".join(ports))
    return "\n".join(lines) + "\n"


def to_dot(machine: RouterMachine) -> str:
    """Graphviz DOT of the instance, in the style of the paper's Fig. 2."""
    processor = machine.processor
    lines = [
        "digraph taco {",
        "  rankdir=TB;",
        "  node [shape=box, fontname=Helvetica];",
        '  label="TACO: ' + machine.config.describe() + '";',
    ]
    for i in range(processor.bus_count):
        lines.append(f'  bus{i} [shape=record, style=filled, '
                     f'fillcolor=lightgrey, label="bus {i}"];')
    for fu in _sorted_units(processor):
        shape = "box3d" if fu.kind in ("mmu", "rtu", "ippu", "oppu") \
            else "box"
        lines.append(f'  {fu.name} [shape={shape}, '
                     f'label="{fu.name}\\n({fu.kind})"];')
        for i in sorted(processor.interconnect.reachable(fu.name)):
            lines.append(f"  {fu.name} -> bus{i} [dir=both, arrowsize=0.5];")
    lines.append('  dmem [shape=cylinder, label="data\\nmemory"];')
    lines.append("  mmu0 -> dmem;")
    lines.append("  rtu0 -> dmem;")
    for card in machine.line_cards:
        lines.append(f'  card{card.index} [shape=component, '
                     f'label="line card {card.index}"];')
        lines.append(f"  card{card.index} -> ippu0;")
        lines.append(f"  oppu0 -> card{card.index};")
    lines.append("}")
    return "\n".join(lines) + "\n"

