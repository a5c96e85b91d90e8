"""TTA code optimisations (paper §3, Fig. 3).

"Using registers for FUs allows using optimization techniques like moving
operands from an output register to an input register without additional
temporary storage (bypassing), using the same output register or general
purpose register for multiple data transports (operand sharing), easy
removing of registers that are no longer in use" — the three passes here:

* :func:`bypass_block` — ``x -> gpr.rK`` followed by ``gpr.rK -> y``
  becomes ``x -> y`` when the value provably survives (no clobber of x in
  between);
* :func:`eliminate_dead_writes_block` — register writes nothing ever
  reads are dropped (scoped to registers declared block-local);
* :func:`share_operands_block` — rewriting an operand latch with the
  value it already holds is dropped (immediates only, conservatively).

:func:`optimize` runs the three on every block. All passes work
block-locally and preserve observable behaviour; tests check equivalence
by simulating before/after.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.asm.ir import BasicBlock, IrProgram, SymbolicMove
from repro.tta.ports import Immediate, PortKind, PortRef
from repro.tta.processor import TacoProcessor

CONTROL_FU = "nc"


def optimize(program: IrProgram, processor: TacoProcessor,
             temp_registers: Iterable[PortRef] = ()) -> IrProgram:
    """Run every pass; *temp_registers* are registers dead at block exits."""
    temps = set(temp_registers)
    blocks = []
    for block in program.blocks:
        moves = list(block.moves)
        moves = bypass_block(moves, processor)
        moves = share_operands_block(moves, processor)
        moves = eliminate_dead_writes_block(moves, temps)
        blocks.append(BasicBlock(label=block.label, moves=moves))
    return IrProgram(blocks=blocks)


# -- bypassing ---------------------------------------------------------------------


def bypass_block(moves: List[SymbolicMove],
                 processor: TacoProcessor) -> List[SymbolicMove]:
    """Forward sources through single-use register copies."""
    out = list(moves)
    changed = True
    while changed:
        changed = False
        for i, copy_move in enumerate(out):
            forwarded = _try_forward(out, i, processor)
            if forwarded is not None:
                j, replacement = forwarded
                out[j] = replacement
                changed = True
                break
    return out


def _try_forward(moves: List[SymbolicMove], i: int,
                 processor: TacoProcessor) -> Optional[Tuple[int, SymbolicMove]]:
    copy_move = moves[i]
    if copy_move.guard is not None or copy_move.source is None:
        return None
    destination = copy_move.destination
    _, dest_port = processor.resolve(destination)
    if dest_port.kind is not PortKind.REGISTER:
        return None
    source = copy_move.source
    for j in range(i + 1, len(moves)):
        later = moves[j]
        # clobbers of the register or of the forwarded source end the window
        if later.source == destination and later.guard is None:
            # candidate read: forward if the original source is still live
            if isinstance(source, PortRef) and _source_clobbered(
                    moves, i + 1, j, source, processor):
                return None
            if later.destination == destination:
                return None
            return j, SymbolicMove(source=source,
                                   destination=later.destination,
                                   label_target=None, guard=later.guard)
        if later.destination == destination:
            return None
        if isinstance(source, PortRef) and _source_clobbered(
                moves, j, j + 1, source, processor):
            return None
        if later.destination.fu == CONTROL_FU:
            return None
    return None


def _source_clobbered(moves: List[SymbolicMove], start: int, end: int,
                      source: PortRef, processor: TacoProcessor) -> bool:
    src_fu, src_port = processor.resolve(source)
    for k in range(start, end):
        move = moves[k]
        if move.destination == source:
            return True
        if src_port.kind is PortKind.RESULT:
            # any new trigger of the producing FU overwrites its results
            _, dport = processor.resolve(move.destination)
            if move.destination.fu == source.fu and dport.kind is PortKind.TRIGGER:
                return True
    return False


# -- dead register writes -------------------------------------------------------------


def eliminate_dead_writes_block(moves: List[SymbolicMove],
                                temps: Set[PortRef]) -> List[SymbolicMove]:
    keep = [True] * len(moves)
    for i, move in enumerate(moves):
        if move.destination not in temps or move.guard is not None:
            continue
        read_later = False
        for j in range(i + 1, len(moves)):
            if moves[j].source == move.destination:
                read_later = True
                break
            if (moves[j].destination == move.destination
                    and moves[j].guard is None):
                break  # overwritten before any read
        if not read_later:
            keep[i] = False
    return [m for m, k in zip(moves, keep) if k]


# -- operand sharing -------------------------------------------------------------------


def share_operands_block(moves: List[SymbolicMove],
                         processor: TacoProcessor) -> List[SymbolicMove]:
    """Drop rewrites of an operand latch with the immediate it holds."""
    latch_value = {}
    out: List[SymbolicMove] = []
    for move in moves:
        destination = move.destination
        _, dest_port = processor.resolve(destination)
        if (dest_port.kind is PortKind.OPERAND
                and isinstance(move.source, Immediate)
                and move.guard is None):
            if latch_value.get(destination) == move.source.value:
                continue
            latch_value[destination] = move.source.value
            out.append(move)
            continue
        if dest_port.kind is PortKind.OPERAND:
            latch_value.pop(destination, None)
        if destination.fu == CONTROL_FU:
            # after a (possible) control transfer the latch cache is stale
            latch_value.clear()
        out.append(move)
    return out
