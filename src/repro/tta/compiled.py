"""Pre-decoded fast execution backend for TACO processors.

The move schedule of a TTA program is static per (program, configuration)
pair: which ports each slot reads and writes, which FU a trigger starts,
and which result bit a guard tests are all fixed at compile time — the
insight the TTA decoder literature exploits in hardware. This module
exploits it in simulation: :func:`compile_program` pre-resolves every
socket/port reference once and emits one specialised Python function per
instruction (plus a driver for the fetch/commit/tick skeleton), so the
hot loop runs with **zero per-move dispatch** — no dict lookups, no
``isinstance`` checks, no method-call indirection. The trigger semantics
of every stock FU (counter, comparator, matcher, masker, shifter, mmu,
checksum, liu, ippu, oppu, and the NC's jump/halt ports) are inlined
into the generated code with *eager result application*: a latency-1
operation's results are written to its result ports at trigger time,
as :meth:`FunctionalUnit.finish` does in the interpreter (see the timing
contract in :mod:`repro.tta.fu`). That is observationally identical to
a commit at the start of the next cycle, because sources are read and
guards are evaluated strictly before any write of the same cycle — so
these FUs never carry pending completions and the per-cycle commit scan
disappears entirely. FUs this module cannot prove (custom
subclasses, the CAM RTU with its configurable search latency) keep the
generic ``_execute`` + pending-queue path with an unrolled commit check.

The unit of code caching is one generated function, keyed by its text.
Step functions carry no pc in their name, and every bound object (port,
FU, memory, queue) gets a deterministic, structure-derived name that the
function takes as a trailing parameter. Two instructions that move the
same ports therefore emit the same text, whichever program and machine
they come from: the 15 Table-1 programs emit 1166 steps but only ~300
distinct bodies. :func:`compile_program` looks each text up in one
bounded LRU cache, compiles all the misses (plus the driver, if it is
new) in a single ``compile()`` call, and instantiates every function
with :class:`types.FunctionType`, passing *this* machine's objects as
the defaults. One code object is thus shared by every machine of that
shape, while each function's defaults (locals, ``LOAD_FAST``) still
point at its own machine's ports.

Bit-identity with :class:`~repro.tta.simulator.Simulator` is a hard
contract (enforced by :mod:`repro.verify.backends` across the Table-1
grid). Three properties of the interpreter make the batching sound:

* every occupied move slot drives its bus exactly once per execution of
  its instruction, whether the guard squashes it or not — so
  ``bus_busy_cycles`` is a static per-instruction vector times the
  per-instruction visit counts, and ``instructions_fetched`` is the sum
  of the visit counts;
* unguarded move counts are static per instruction — only guard
  outcomes are dynamic, so the step functions return just their squash
  count;
* ``fu_triggers`` tracks ``fu.trigger_count``, which the generated code
  maintains inline — it only needs to be copied into the report at run
  end.

The per-instruction visit counts are reduced to the report totals in one
plain-Python pass at run end.

Whenever an observation hook is attached (``move_hook`` by tracers and
the hazard detector, ``transport_filter`` by fault injectors),
:class:`CompiledSimulator` silently falls back to the inherited
interpreter loop — hooks need to see every transport as it happens, which
is exactly the per-move work this backend compiles away. Fallbacks are
counted in the ``simulator_fallback_total`` metric.

On the abnormal exit paths the compiled backend matches the interpreter's
*exceptions* exactly (type and message, including the budget-exhaustion
loop diagnosis), while the partially-executed final cycle's move counts
may be attributed slightly differently; no consumer reads the report
after a raise, so the differential oracle byte-diffs the normal path and
the exception string on the abnormal ones.
"""

from __future__ import annotations

import builtins
import functools
import re
from types import CodeType, FunctionType
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.obs import get_registry
from repro.obs.catalogue import SIMULATOR_FALLBACK
from repro.tta.fu import FunctionalUnit
from repro.tta.memory import ProgramMemory
from repro.tta.ports import Immediate, PortKind, PortRef, WORD_MASK
from repro.tta.processor import TacoProcessor
from repro.tta.simulator import (
    DEFAULT_MAX_CYCLES,
    Simulator,
    raise_budget_exhausted,
    tick_overriders,
)

class _CompiledProgram:
    """The pre-decoded schedule: one driver plus static accounting."""

    __slots__ = ("drive", "length", "occupancy", "moves_per_pc",
                 "untracked_fus")

    def __init__(self, drive: Callable, length: int,
                 occupancy: Tuple[Tuple[int, ...], ...],
                 untracked_fus: Tuple[FunctionalUnit, ...]):
        self.drive = drive
        self.length = length
        #: per pc: bus indices whose slot is occupied (guarded or not)
        self.occupancy = occupancy
        self.moves_per_pc = tuple(len(buses) for buses in occupancy)
        #: FUs the generated commit scan does *not* cover (their results
        #: are applied eagerly, or the program never triggers them); they
        #: can only carry pending completions if the caller stepped the
        #: interpreter on the same processor first, which forces a
        #: fallback run
        self.untracked_fus = untracked_fus


@functools.lru_cache(maxsize=1024)
def _ident(name: str) -> str:
    """A deterministic identifier fragment for an FU/port name."""
    return re.sub(r"\W", "_", name)


#: the globals of every generated function: the only free names the
#: generated code uses besides builtins
_GLOBALS: Dict[str, object] = {
    "__builtins__": builtins,
    "SimulationError": SimulationError,
    "_raise_budget": raise_budget_exhausted,
}


class _Codegen:
    """Accumulates object bindings for the functions of one program.

    Names are derived from the *structure* (FU and port names), never
    from object identity, so a function's text — and therefore its
    cached code object — is identical across machines of the same shape.
    """

    def __init__(self):
        self.objects: Dict[str, object] = {}
        self._by_id: Dict[int, str] = {}
        #: bound names referenced by the function currently being
        #: emitted; they become its trailing parameters
        self.params: Optional[Set[str]] = None

    def bind(self, name: str, obj: object) -> str:
        """Register *obj* under the deterministic *name*."""
        existing = self._by_id.get(id(obj))
        if existing is None:
            while name in self.objects:  # distinct object, same name
                name += "_"
            self._by_id[id(obj)] = name
            self.objects[name] = obj
            existing = name
        if self.params is not None:
            self.params.add(existing)
        return existing

    def begin_function(self) -> None:
        self.params = set()

    def end_function(self, name: str,
                     body: List[str]) -> Tuple[str, Tuple[str, ...]]:
        """The text of ``def name(cycle, <bound names>): body`` and its
        bound names, in parameter order."""
        params = tuple(sorted(self.params))
        self.params = None
        header = f"def {name}(cycle{''.join(', ' + p for p in params)}):"
        return "\n".join([header] + body) + "\n", params

    def instantiate(self, code: CodeType,
                    params: Tuple[str, ...]) -> Callable:
        """A function of *code* whose parameter defaults are this
        machine's objects."""
        return FunctionType(code, _GLOBALS, None,
                            tuple(self.objects[p] for p in params))


def _emit_read(gen: _Codegen, lines: List[str], processor: TacoProcessor,
               source, var: str, indent: str) -> Optional[str]:
    """Emit the source-read lines for one move; returns the value
    expression (a literal for immediates, *var* for port reads)."""
    if isinstance(source, Immediate):
        # truncate(imm) == imm: Immediate validates the 32-bit range
        return repr(source.value)
    assert isinstance(source, PortRef)
    fu, port = processor.resolve(source)
    if not port.is_readable:
        lines.append(
            f'{indent}raise SimulationError(f"cycle {{cycle}}: move reads '
            f'write-only port {fu.name}.{port.name}")')
        return None
    port_var = gen.bind(f"_p_{_ident(fu.name)}_{_ident(port.name)}", port)
    lines.append(f"{indent}if cycle < {port_var}.valid_from_cycle:")
    lines.append(
        f'{indent}    raise SimulationError(f"cycle {{cycle}}: '
        f"{fu.name}.{port.name} not valid until cycle "
        f'{{{port_var}.valid_from_cycle}}")')
    lines.append(f"{indent}{var} = {port_var}.value")
    return var


# -- inline trigger semantics -------------------------------------------------
#
# Each emitter writes the body of one stock FU's ``_execute`` *plus* the
# commit that would apply its results, specialised for the trigger port,
# directly into the step function. They run during the write phase of
# cycle ``c`` and apply the same port values, the same
# ``valid_from_cycle`` (= c + 1) and the same result bit that the
# interpreter's ``FunctionalUnit.finish`` applies at the trigger. The
# interpreter defers only the oppu's result bit, because the oppu
# overrides ``tick``; its tick never touches that bit, so applying it at
# the trigger is still unobservable. An emitter returns False to decline
# (unknown trigger port), sending the caller to the generic
# pending-queue path.

def _port_var(gen: _Codegen, fu: FunctionalUnit, port_name: str) -> str:
    return gen.bind(f"_p_{_ident(fu.name)}_{_ident(port_name)}",
                    fu.ports[port_name])


def _emit_result(lines: List[str], indent: str, port_var: str,
                 value_expr: str) -> None:
    lines.append(f"{indent}{port_var}.value = {value_expr}")
    lines.append(f"{indent}{port_var}.valid_from_cycle = cycle + 1")


def _emit_counter(gen, lines, fu, fu_var, trigger, value, indent):
    exprs = {"t_add": f"({value} + {_port_var(gen, fu, 'o')}.value)"
                      f" & {WORD_MASK}",
             "t_sub": f"({value} - {_port_var(gen, fu, 'o')}.value)"
                      f" & {WORD_MASK}",
             "t_inc": f"({value} + 1) & {WORD_MASK}",
             "t_dec": f"({value} - 1) & {WORD_MASK}"}
    if trigger not in exprs:
        return False
    stop = _port_var(gen, fu, "o_stop")
    lines.append(f"{indent}_r = {exprs[trigger]}")
    _emit_result(lines, indent, _port_var(gen, fu, "r"), "_r")
    lines.append(f"{indent}{fu_var}.result_bit = _r == {stop}.value")
    return True


_COMPARATOR_OPS = {"t_eq": "==", "t_ne": "!=", "t_lt": "<",
                   "t_le": "<=", "t_gt": ">", "t_ge": ">="}


def _emit_comparator(gen, lines, fu, fu_var, trigger, value, indent):
    op = _COMPARATOR_OPS.get(trigger)
    if op is None:
        return False
    lines.append(f"{indent}_b = {value} {op} "
                 f"{_port_var(gen, fu, 'o')}.value")
    _emit_result(lines, indent, _port_var(gen, fu, "r"), "1 if _b else 0")
    lines.append(f"{indent}{fu_var}.result_bit = _b")
    return True


def _emit_matcher(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger != "t":
        return False
    lines.append(f"{indent}_b = (({value} ^ "
                 f"{_port_var(gen, fu, 'o_ref')}.value) & "
                 f"{_port_var(gen, fu, 'o_mask')}.value) == 0")
    _emit_result(lines, indent, _port_var(gen, fu, "r"), "1 if _b else 0")
    lines.append(f"{indent}{fu_var}.result_bit = _b")
    return True


def _emit_masker(gen, lines, fu, fu_var, trigger, value, indent):
    val = _port_var(gen, fu, "o_val")
    if trigger == "t":
        mask = _port_var(gen, fu, "o_mask")
        expr = (f"({value} & ~{mask}.value) | "
                f"({val}.value & {mask}.value)")
    elif trigger == "t_and":
        expr = f"{value} & {val}.value"
    elif trigger == "t_or":
        expr = f"{value} | {val}.value"
    elif trigger == "t_xor":
        expr = f"{value} ^ {val}.value"
    else:
        return False
    lines.append(f"{indent}_r = {expr}")
    _emit_result(lines, indent, _port_var(gen, fu, "r"), "_r")
    lines.append(f"{indent}{fu_var}.result_bit = _r != 0")
    return True


def _emit_shifter(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger not in ("t_sll", "t_srl", "t_sra"):
        return False
    lines.append(f"{indent}_a = {_port_var(gen, fu, 'o')}.value & 31")
    if trigger == "t_sll":
        lines.append(f"{indent}_r = ({value} << _a) & {WORD_MASK}")
    elif trigger == "t_srl":
        lines.append(f"{indent}_r = {value} >> _a")
    else:  # arithmetic: sign-extend bit 31 before the shift
        lines.append(f"{indent}if {value} & 0x80000000:")
        lines.append(f"{indent}    _r = (({value} - 0x100000000) >> _a)"
                     f" & {WORD_MASK}")
        lines.append(f"{indent}else:")
        lines.append(f"{indent}    _r = {value} >> _a")
    _emit_result(lines, indent, _port_var(gen, fu, "r"), "_r")
    lines.append(f"{indent}{fu_var}.result_bit = _r != 0")
    return True


def _emit_mmu(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger not in ("t_read", "t_write"):
        return False
    mem = gen.bind(f"_m_{_ident(fu.name)}", fu.memory)
    words = gen.bind(f"_mw_{_ident(fu.name)}", fu.memory._words)
    size = len(fu.memory)
    if trigger == "t_read":
        address = value
    else:
        address = "_adr"
        lines.append(
            f"{indent}_adr = {_port_var(gen, fu, 'o_addr')}.value")
    # port values are masked non-negative, so only the upper bound can trip
    lines.append(f"{indent}if {address} >= {size}:")
    lines.append(f'{indent}    raise SimulationError(f"data memory access '
                 f'out of range: {{{address}:#x}} (size {size} words)")')
    if trigger == "t_read":
        lines.append(f"{indent}{mem}.reads += 1")
        _emit_result(lines, indent, _port_var(gen, fu, "r"),
                     f"{words}[{address}]")
    else:
        lines.append(f"{indent}{mem}.writes += 1")
        lines.append(f"{indent}{words}[_adr] = {value}")
    lines.append(f"{indent}{fu_var}.result_bit = True")
    return True


def _emit_checksum(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger == "t_clear":
        lines.append(f"{indent}_acc = 0")
    elif trigger == "t_add":
        lines.append(f"{indent}_acc = {fu_var}._accumulator + "
                     f"({value} >> 16) + ({value} & 0xFFFF)")
        lines.append(f"{indent}while _acc >> 16:")
        lines.append(f"{indent}    _acc = (_acc & 0xFFFF) + (_acc >> 16)")
    else:
        return False
    lines.append(f"{indent}{fu_var}._accumulator = _acc")
    _emit_result(lines, indent, _port_var(gen, fu, "r_sum"), "_acc")
    _emit_result(lines, indent, _port_var(gen, fu, "r_cksum"),
                 "~_acc & 0xFFFF")
    lines.append(f"{indent}{fu_var}.result_bit = _acc == 0xFFFF")
    return True


def _emit_liu(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger not in ("t_get", "t_set"):
        return False
    # configure() replaces the word list, so fetch it through the FU
    lines.append(f"{indent}_lw = {fu_var}._words")
    if trigger == "t_get":
        lines.append(f"{indent}if {value} >= len(_lw):")
        lines.append(f'{indent}    raise SimulationError(f"cycle '
                     f'{{cycle}}: LIU index {{{value}}} out of range '
                     f'({{len(_lw)}} words configured)")')
        _emit_result(lines, indent, _port_var(gen, fu, "r"),
                     f"_lw[{value}] & {WORD_MASK}")
    else:
        lines.append(f"{indent}_i = {_port_var(gen, fu, 'o_idx')}.value")
        lines.append(f"{indent}if _i >= len(_lw):")
        lines.append(f'{indent}    raise SimulationError(f"cycle '
                     f'{{cycle}}: LIU index {{_i}} out of range")')
        lines.append(f"{indent}_lw[_i] = {value}")
    lines.append(f"{indent}{fu_var}.result_bit = True")
    return True


def _emit_ippu(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger != "t_pop":
        return False
    queue = gen.bind(f"_q_{_ident(fu.name)}", fu._queue)
    lines.append(f"{indent}if not {queue}:")
    lines.append(f'{indent}    raise SimulationError(f"cycle {{cycle}}: '
                 f'ippu popped with an empty queue (guard on the ippu '
                 f'result bit before popping)")')
    lines.append(f"{indent}_ptr, _ifc = {queue}.popleft()")
    _emit_result(lines, indent, _port_var(gen, fu, "r_ptr"), "_ptr")
    _emit_result(lines, indent, _port_var(gen, fu, "r_iface"), "_ifc")
    return True  # t_pop completion carries no result bit


def _emit_oppu(gen, lines, fu, fu_var, trigger, value, indent):
    pointer = f"{_port_var(gen, fu, 'o_ptr')}.value"
    if trigger == "t_send":
        queue = gen.bind(f"_q_{_ident(fu.name)}", fu._queue)
        lines.append(f"{indent}if {value} >= {len(fu.line_cards)}:")
        lines.append(f'{indent}    raise SimulationError(f"cycle '
                     f'{{cycle}}: oppu told to send on nonexistent '
                     f'interface {{{value}}}")')
        lines.append(f"{indent}{queue}.append(({pointer}, {value}))")
        lines.append(f"{indent}{fu_var}.result_bit = True")
    elif trigger == "t_drop":
        slots = gen.bind(f"_s_{_ident(fu.name)}", fu.slots)
        lines.append(f"{indent}{slots}.release({pointer})")
        lines.append(f"{indent}{fu_var}.result_bit = False")
    elif trigger == "t_punt":
        punted = gen.bind(f"_pu_{_ident(fu.name)}", fu.punted)
        lines.append(f"{indent}{punted}.append({pointer})")
        lines.append(f"{indent}{fu_var}.result_bit = False")
    else:
        return False
    return True


def _emit_nc(gen, lines, fu, fu_var, trigger, value, indent):
    if trigger == "pc":
        lines.append(f"{indent}{fu_var}._jump_target = {value}")
        lines.append(f"{indent}{fu_var}.jumps_taken += 1")
    elif trigger == "halt":
        lines.append(f"{indent}{fu_var}.halted = True")
    else:
        return False
    return True


_EMITTERS: Optional[Dict[type, Callable]] = None


def _trigger_emitters() -> Dict[type, Callable]:
    """Exact-class dispatch table for the inline trigger emitters.

    Imported lazily: the FU modules import routing/router machinery that
    must not load while :mod:`repro.tta` itself is initialising. A
    subclass of a stock FU never matches (its overridden hooks would be
    skipped); it takes the generic ``_execute`` path instead.
    """
    global _EMITTERS
    if _EMITTERS is None:
        from repro.tta.controller import NetworkController
        from repro.tta.fus.checksum import ChecksumUnit
        from repro.tta.fus.comparator import Comparator
        from repro.tta.fus.counter import Counter
        from repro.tta.fus.ippu import InputPreprocessingUnit
        from repro.tta.fus.liu import LocalInfoUnit
        from repro.tta.fus.masker import Masker
        from repro.tta.fus.matcher import Matcher
        from repro.tta.fus.mmu import MemoryManagementUnit
        from repro.tta.fus.oppu import OutputPostprocessingUnit
        from repro.tta.fus.shifter import Shifter
        _EMITTERS = {
            Counter: _emit_counter,
            Comparator: _emit_comparator,
            Matcher: _emit_matcher,
            Masker: _emit_masker,
            Shifter: _emit_shifter,
            MemoryManagementUnit: _emit_mmu,
            ChecksumUnit: _emit_checksum,
            LocalInfoUnit: _emit_liu,
            InputPreprocessingUnit: _emit_ippu,
            OutputPostprocessingUnit: _emit_oppu,
            NetworkController: _emit_nc,
        }
    return _EMITTERS


def _emit_write(gen: _Codegen, lines: List[str], processor: TacoProcessor,
                move, value_expr: str, indent: str,
                tracked: Dict[str, FunctionalUnit]) -> None:
    """Emit the destination-write lines, mirroring FunctionalUnit.write.

    Trigger writes to stock latency-1 FUs inline the operation itself;
    anything else lands in *tracked* and keeps the pending-queue path.
    """
    fu, port = processor.resolve(move.destination)
    if not port.is_writable:
        lines.append(
            f'{indent}raise SimulationError(f"cycle {{cycle}}: move writes '
            f'read-only port {fu.name}.{port.name}")')
        return
    port_var = gen.bind(f"_p_{_ident(fu.name)}_{_ident(port.name)}", port)
    if value_expr.isdigit():  # immediate: already on the 32-bit datapath
        stored = value_expr
        lines.append(f"{indent}{port_var}.value = {stored}")
    else:
        stored = f"_w{port_var}"
        lines.append(f"{indent}{stored} = {value_expr} & {WORD_MASK}")
        lines.append(f"{indent}{port_var}.value = {stored}")
    if port.kind is not PortKind.TRIGGER:
        return
    fu_var = gen.bind(f"_f_{_ident(fu.name)}", fu)
    if not fu.pipelined:
        lines.append(f"{indent}if cycle < {fu_var}._busy_until:")
        lines.append(
            f'{indent}    raise SimulationError(f"cycle {{cycle}}: '
            f"structural hazard — {fu.name} busy until cycle "
            f'{{{fu_var}._busy_until}}")')
    lines.append(f"{indent}{fu_var}.trigger_count += 1")
    # fu.latency is fixed for the life of a machine (the CAM's search
    # latency is applied at build time via the config)
    lines.append(f"{indent}{fu_var}._busy_until = cycle + {fu.latency}")
    emitter = _trigger_emitters().get(type(fu))
    if emitter is not None and fu.latency == 1 and \
            emitter(gen, lines, fu, fu_var, move.destination.port,
                    stored, indent):
        return
    lines.append(f"{indent}{fu_var}._execute({move.destination.port!r}, "
                 f"{stored}, cycle)")
    tracked[fu.name] = fu


def _emit_step(gen: _Codegen, processor: TacoProcessor, instruction,
               tracked: Dict[str, FunctionalUnit]
               ) -> Tuple[str, Tuple[str, ...]]:
    """Emit ``_step``: guards, reads, then writes in bus order.

    Returns the function's text and bound names. The text names no pc,
    so equal instructions on equal shapes share it. The function returns
    the number of moves its guards squashed this execution (0 for
    guard-free instructions).
    """
    slots = [(bus, move) for bus, move in enumerate(instruction.moves)
             if move is not None]
    guarded = any(move.guard is not None for _, move in slots)
    gen.begin_function()
    body: List[str] = []
    if not slots:
        body.append("    return 0")
        return gen.end_function("_step", body)
    if guarded:
        body.append("    _sq = 0")
    # Phase 3 of the interpreter step: guard evaluation + source reads,
    # in bus order (reads see start-of-cycle values; port reads have no
    # side effects, but order still fixes which premature read fires
    # first).
    values: Dict[int, Optional[str]] = {}
    for bus, move in slots:
        if move.guard is None:
            values[bus] = _emit_read(gen, body, processor, move.source,
                                     f"_v{bus}", "    ")
            continue
        guard_fu = processor.fu(move.guard.fu)
        guard_var = gen.bind(f"_f_{_ident(guard_fu.name)}", guard_fu)
        test = f"not {guard_var}.result_bit" if move.guard.negate \
            else f"{guard_var}.result_bit"
        body.append(f"    if {test}:")
        body.append(f"        _g{bus} = True")
        values[bus] = _emit_read(gen, body, processor, move.source,
                                 f"_v{bus}", "        ")
        body.append("    else:")
        body.append(f"        _g{bus} = False")
        body.append("        _sq += 1")
    # Phase 4: destination writes in bus order, squashed moves skipped.
    for bus, move in slots:
        value_expr = values[bus]
        if move.guard is not None:
            body.append(f"    if _g{bus}:")
            if value_expr is not None:
                _emit_write(gen, body, processor, move, value_expr,
                            "        ", tracked)
            else:  # the read raised; the guard branch cannot be reached
                body.append("        pass")
        elif value_expr is not None:
            _emit_write(gen, body, processor, move, value_expr, "    ",
                        tracked)
    body.append(f"    return {'_sq' if guarded else '0'}")
    return gen.end_function("_step", body)


def _emit_drive(gen: _Codegen, processor: TacoProcessor, length: int,
                commit_fus: Sequence[FunctionalUnit]
                ) -> Tuple[str, Tuple[str, ...]]:
    """Emit the per-cycle driver: the interpreter's step() skeleton with
    the commit scan, dispatch, and autonomous ticks unrolled. It takes
    the step functions as the bound name ``_steps``."""
    gen.begin_function()
    gen.params.add("_steps")
    nc_var = gen.bind(f"_f_{_ident(processor.nc.name)}", processor.nc)
    body: List[str] = []
    emit = body.append
    emit("    sim, max_cycles, visits = cycle")
    emit("    cycle = sim.cycle")
    emit(f"    pc = {nc_var}.pc")
    emit("    _append = sim.pc_history.append")
    emit("    squashed = 0")
    # The ippu admits one pending datagram per tick; once every line
    # card's input queue has drained (nothing delivers mid-run) its tick
    # reduces to refreshing the queue-occupancy result bit.
    ippu_fast: Dict[FunctionalUnit, str] = {}
    for fu in tick_overriders(processor):
        fu_var = gen.bind(f"_f_{_ident(fu.name)}", fu)
        if fu.kind == "ippu":
            gen.bind(f"_q_{_ident(fu.name)}", fu._queue)
            emit(f"    _admit{fu_var} = {fu_var}.datagrams_admitted"
                 f" + sum(card.pending_depth()"
                 f" for card in {fu_var}.line_cards)")
            ippu_fast[fu] = fu_var
    emit("    try:")
    emit(f"        while not {nc_var}.halted:")
    emit("            if cycle >= max_cycles:")
    emit("                _raise_budget(sim, max_cycles, pc)")
    # Phase 1: commit matured results. Only generic (non-inlined)
    # trigger targets can carry pending completions.
    for fu in commit_fus:
        fu_var = gen.bind(f"_f_{_ident(fu.name)}", fu)
        emit(f"            if {fu_var}._pending: {fu_var}.commit(cycle)")
    # Phase 2: fetch (bounds check + pc trace; the dispatch below *is*
    # the decoded fetch).
    emit(f"            if pc < 0 or pc >= {length}:")
    emit('                raise SimulationError(')
    emit(f'                    f"program counter out of range: {{pc}} '
         f'(program has {length} instructions)")')
    emit("            _append(pc)")
    # Phases 3+4: the specialised per-instruction function.
    emit("            squashed += _steps[pc](cycle)")
    emit("            visits[pc] += 1")
    # Phase 5: autonomous ticks in processor order, then the NC advance.
    for fu in tick_overriders(processor):
        fu_var = gen.bind(f"_f_{_ident(fu.name)}", fu)
        if fu in ippu_fast:
            queue_var = gen.bind(f"_q_{_ident(fu.name)}", fu._queue)
            emit(f"            if {fu_var}.datagrams_admitted < "
                 f"_admit{fu_var}:")
            emit(f"                {fu_var}.tick(cycle)")
            emit("            else:")
            emit(f"                {fu_var}.result_bit = "
                 f"not not {queue_var}")
        elif fu.kind == "oppu":
            queue_var = gen.bind(f"_q_{_ident(fu.name)}", fu._queue)
            emit(f"            if {queue_var}: {fu_var}.tick(cycle)")
        else:
            emit(f"            {fu_var}.tick(cycle)")
    emit(f"            jump = {nc_var}._jump_target")
    emit("            if jump is None:")
    emit("                pc += 1")
    emit("            else:")
    emit("                pc = jump")
    emit(f"                {nc_var}._jump_target = None")
    emit("            cycle += 1")
    emit("    finally:")
    emit("        sim.cycle = cycle")
    emit(f"        {nc_var}.pc = pc")
    emit("        sim._drive_squashed = squashed")
    return gen.end_function("_drive", body)


#: function text -> code object, least recently used first; a text
#: depends only on its instruction (the driver's: on the program length
#: and the generic FUs) and the processor's shape, so every machine of
#: one shape shares the code
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_MAX = 4096


def _code_objects(texts: Sequence[str]) -> Dict[str, CodeType]:
    """The code object of each function text. Every text missing from
    the cache is compiled in one ``compile()`` call."""
    codes: Dict[str, Optional[CodeType]] = {}
    missing = []
    for text in texts:
        if text in codes:
            continue
        code = _CODE_CACHE.pop(text, None)
        if code is None:
            missing.append(text)
        else:
            _CODE_CACHE[text] = code  # now the most recently used
        codes[text] = code
    if missing:
        module = compile("\n".join(missing), "<tta-compiled-schedule>",
                         "exec")
        # one code constant per def, in source order (code constants
        # are never merged)
        fresh = [c for c in module.co_consts if isinstance(c, CodeType)]
        assert len(fresh) == len(missing)
        for text, code in zip(missing, fresh):
            codes[text] = _CODE_CACHE[text] = code
        while len(_CODE_CACHE) > _CODE_CACHE_MAX:
            del _CODE_CACHE[next(iter(_CODE_CACHE))]
    return codes


def compile_program(processor: TacoProcessor,
                    program: ProgramMemory) -> _CompiledProgram:
    """Pre-decode *program* against *processor* into a flat schedule."""
    processor.validate_program(program)
    gen = _Codegen()
    steps = []
    occupancy = []
    tracked: Dict[str, FunctionalUnit] = {}
    for instruction in program:
        steps.append(_emit_step(gen, processor, instruction, tracked))
        occupancy.append(tuple(
            bus for bus, move in enumerate(instruction.moves)
            if move is not None))
    commit_fus = [fu for name, fu in processor.fus.items()
                  if name in tracked]
    untracked = tuple(fu for name, fu in processor.fus.items()
                      if name not in tracked)
    drive_text, drive_params = _emit_drive(gen, processor, len(program),
                                           commit_fus)
    codes = _code_objects([text for text, _ in steps] + [drive_text])
    gen.objects["_steps"] = tuple(
        gen.instantiate(codes[text], params) for text, params in steps)
    return _CompiledProgram(
        drive=gen.instantiate(codes[drive_text], drive_params),
        length=len(program), occupancy=tuple(occupancy),
        untracked_fus=untracked)


class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` that runs the pre-decoded schedule.

    ``step()``/``run_cycles()`` keep the inherited per-cycle interpreter
    (single-stepping is a debugging activity); ``run()`` uses the
    compiled schedule unless an observation hook forces a fallback.
    """

    backend_name = "compiled"

    def __init__(self, processor: TacoProcessor, program: ProgramMemory):
        super().__init__(processor, program)
        self._compiled: Optional[_CompiledProgram] = None
        self._drive_squashed = 0

    # -- fallback ---------------------------------------------------------------

    def _fallback_reason(self) -> Optional[str]:
        """Why this run must take the interpreter (None = compiled OK)."""
        reasons = []
        if self.move_hook is not None:
            reasons.append("move_hook")
        if self.transport_filter is not None:
            reasons.append("transport_filter")
        return "+".join(reasons) if reasons else None

    # -- public API -------------------------------------------------------------

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES):
        reason = self._fallback_reason()
        if reason is None:
            if self._compiled is None:
                self._compiled = compile_program(self.processor,
                                                 self.program)
            if any(fu._pending for fu in self._compiled.untracked_fus):
                # Stepping the interpreter first (or a different program
                # on the same processor) left completions pending on an
                # FU this schedule applies eagerly or never triggers;
                # only the interpreter's full commit scan retires those.
                reason = "pending_state"
        if reason is not None:
            SIMULATOR_FALLBACK.inc(reason=reason)
            self.metrics_backend = "interpreter"
            return super().run(max_cycles)
        self.metrics_backend = "compiled"
        registry = get_registry()
        start = (registry.time(), self.cycle, self.report.moves_executed,
                 dict(self.report.hazards)) if registry.enabled else None
        visits = [0] * self._compiled.length
        self._drive_squashed = 0
        try:
            self._compiled.drive((self, max_cycles, visits))
        finally:
            self._finalize(visits)
            if start is not None:
                self._publish_run_metrics(registry, *start)
        self.report.halted = True
        return self.report

    # -- batched accounting ----------------------------------------------------

    def _finalize(self, visits: List[int]) -> None:
        """Reduce per-pc visit counts into the interpreter's report
        totals."""
        compiled = self._compiled
        report = self.report
        report.cycles = self.cycle
        report.instructions_fetched += sum(visits)
        report.moves_squashed += self._drive_squashed
        issued = 0
        busy = report.bus_busy_cycles
        moves_per_pc = compiled.moves_per_pc
        occupancy = compiled.occupancy
        for pc, count in enumerate(visits):
            if not count:
                continue
            issued += count * moves_per_pc[pc]
            for bus in occupancy[pc]:
                busy[bus] += count
        # every occupied slot was either squashed or executed
        report.moves_executed += issued - self._drive_squashed
        for name, fu in self.processor.fus.items():
            report.fu_triggers[name] = fu.trigger_count
