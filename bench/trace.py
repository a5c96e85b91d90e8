"""Layer spans taken from outside the program.

A traced rep wraps public layer entry points before ``repro.cli.main``
runs. Every call through a wrapper records a span (name, parent span,
start, end and an optional measured value) in memory; the rep writes the
spans out as JSON when the command returns. A layer's self time is the
duration of its spans minus the time their child spans cover.

Names are patched where the program looks them up: a function imported
into a module is patched in that module, a method on its class, and the
``compile`` builtin is shadowed in the module that calls it. A target
that no longer exists raises :class:`TraceTargetError` naming it, so a
refactor that renames a layer entry point must update the trace instead
of reporting that layer as zero.

Per-address ``RoutingTable.lookup`` stays unwrapped: it runs tens of
thousands of times per rep and wrapping it would distort what it
measures. Its time lands in the self time of the span that calls it.
"""

from __future__ import annotations

import builtins
import dis
import functools
import importlib
import json
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

KINDS = {
    "sequential": ("repro.routing.sequential", "SequentialRoutingTable"),
    "balanced-tree": ("repro.routing.balanced_tree",
                      "BalancedTreeRoutingTable"),
    "cam": ("repro.routing.cam", "CamRoutingTable"),
    "multibit-trie": ("repro.routing.multibit_trie",
                      "MultibitTrieRoutingTable"),
    "bloom": ("repro.routing.bloom", "BloomRoutingTable"),
}

Measure = Optional[Callable[[tuple, dict, object], object]]


def _cycles(args, kwargs, report):
    return report.cycles


def _fib_inputs(args, kwargs, routes):
    return repr((args, sorted(kwargs.items())))


def _batch_size(args, kwargs, results):
    return len(results)


#: (module, attribute path, span name, measure) of every wrapped entry
#: point; an attribute path "compile" with no such module attribute
#: means the builtin as that module looks it up
TARGETS: List[Tuple[str, str, str, Measure]] = [
    ("repro.tta.simulator", "Simulator.run", "tta.simulate", _cycles),
    ("repro.tta.compiled", "CompiledSimulator.run", "tta.simulate", _cycles),
    ("repro.tta.compiled", "compile_program", "tta.compile_program", None),
    ("repro.tta.compiled", "compile", "tta.codegen", None),
    ("repro.programs.runner", "build_machine", "programs.build_machine",
     None),
    ("repro.programs.machine", "RouterMachine.load_routes",
     "programs.load_routes", None),
    ("repro.programs.runner", "build_forwarding_program",
     "programs.build_forwarding_program", None),
    ("repro.programs.runner", "expected_forwarding",
     "programs.expected_forwarding", None),
    ("repro.programs.forwarding", "assemble", "asm.assemble", None),
    ("repro.asm.scheduler", "BusScheduler.schedule", "asm.schedule", None),
    ("repro.dse.evaluator", "estimate_area", "estimation", None),
    ("repro.dse.evaluator", "estimate_power", "estimation", None),
    ("repro.dse.campaign", "estimate_area", "estimation", None),
    ("repro.dse.campaign", "estimate_power", "estimation", None),
    ("repro.dse.lookup_sweep", "estimate_lookup_point", "estimation", None),
    ("repro.dse.sdc", "estimate_protection_overhead", "estimation", None),
    ("repro.workload.fib", "synthesize_fib", "workload.synthesize_fib",
     _fib_inputs),
    ("repro.dse.lookup_sweep", "synthesize_fib", "workload.synthesize_fib",
     _fib_inputs),
    ("repro.dse.sdc", "synthesize_fib", "workload.synthesize_fib",
     _fib_inputs),
    ("repro.dse.lookup_sweep", "zipf_addresses", "workload.zipf_addresses",
     None),
    ("repro.dse.sdc", "zipf_addresses", "workload.zipf_addresses", None),
    *[(module, f"{cls}.load", f"routing.load.{kind}", None)
      for kind, (module, cls) in KINDS.items()],
    *[(module, f"{cls}.lookup_batch", f"routing.lookup_batch.{kind}",
       _batch_size) for kind, (module, cls) in KINDS.items()],
    ("repro.routing.protected", "ProtectedRoutingTable.load",
     "routing.protected.load", None),
    ("repro.routing.protected", "ProtectedRoutingTable.checkpoint",
     "routing.protected.checkpoint", None),
    ("repro.routing.protected", "ProtectedRoutingTable.verify_integrity",
     "routing.protected.verify_integrity", None),
    ("repro.faults.memory", "MemoryFaultInjector.inject",
     "faults.memory.inject", None),
    ("repro.verify.oracle", "MemoryDifferentialOracle.classify",
     "verify.memory_classify", None),
    ("os", "fsync", "dse.journal.fsync", None),
    ("repro.cli", "write_atomic", "cli.write_output", None),
    ("concurrent.futures.process", "ProcessPoolExecutor.submit",
     "dse.pool.submit", None),
    ("concurrent.futures", "Future.result", "dse.pool.wait", None),
]


class TraceTargetError(RuntimeError):
    """A wrapped entry point no longer exists where the trace expects it."""


def _calls_builtin(module, name: str) -> bool:
    """True when code defined in *module* loads the global *name*."""
    codes = []
    for value in vars(module).values():
        for function in [value] + (list(vars(value).values())
                                   if isinstance(value, type) else []):
            if getattr(function, "__module__", None) == module.__name__ \
                    and hasattr(function, "__code__"):
                codes.append(function.__code__)
    while codes:
        code = codes.pop()
        codes += [const for const in code.co_consts
                  if isinstance(const, types.CodeType)]
        if any(instruction.opname == "LOAD_GLOBAL"
               and instruction.argval == name
               for instruction in dis.get_instructions(code)):
            return True
    return False


def resolve(module_name: str, path: str):
    """(owner, attribute, original) for one target, or TraceTargetError."""
    target = f"{module_name}.{path}"
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TraceTargetError(f"trace target {target}: {exc}") from None
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceTargetError(f"trace target {target} no longer exists")
    original = getattr(owner, attribute, None)
    if original is None and not owners and hasattr(builtins, attribute) \
            and _calls_builtin(owner, attribute):
        original = getattr(builtins, attribute)
    if not callable(original):
        raise TraceTargetError(f"trace target {target} no longer exists")
    return owner, attribute, original


class Tracer:
    """Records spans from the wrapped entry points, main thread only."""

    def __init__(self):
        #: [name, parent index or -1, start, end, measured value]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._thread = threading.get_ident()

    def install(self) -> None:
        """Wrap every target; raises TraceTargetError before patching any
        if one of them is missing."""
        resolved = [(resolve(module, path), name, measure)
                    for module, path, name, measure in TARGETS]
        for (owner, attribute, original), name, measure in resolved:
            setattr(owner, attribute, self._wrap(original, name, measure))

    def _wrap(self, original, name: str, measure: Measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return original(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


class _Layers:
    """Per-layer totals over one traced rep's spans."""

    def __init__(self, spans: List[list], active_s: float):
        self.active_s = active_s
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.nested: Dict[str, int] = {}
        self.values: Dict[str, list] = {}
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, parent, start, end, value) in enumerate(spans):
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "dse.journal.fsync" \
                    and parent_name == "cli.write_output":
                name = parent_name  # the --output document's fsync
            self.self_s[name] = self.self_s.get(name, 0.0) \
                + (end - start) - child_s[index]
            if name == parent_name:
                # a call nested in a span of its own layer (a compiled
                # run falling back to the interpreter) is not a new call
                self.nested[name] = self.nested.get(name, 0) + 1
                continue
            self.calls[name] = self.calls.get(name, 0) + 1
            if value is not None:
                self.values.setdefault(name, []).append(value)
        self.unattributed_s = active_s - sum(self.self_s.values())

    def pct(self, layer: str) -> float:
        return 100.0 * self.self_s.get(layer, 0.0) / self.active_s

    def count(self, layer: str) -> int:
        return self.calls.get(layer, 0)

    def total(self, layer: str) -> float:
        return sum(self.values.get(layer, ()))

    def rate(self, layer: str) -> float:
        busy = self.self_s.get(layer, 0.0)
        return self.total(layer) / busy if busy > 0 else 0.0

    @staticmethod
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0


TABLE1 = ("table1-interp", "table1-compiled")
FIB = ("fib-build", "fib-lookup")
FAULTS = ("fib-faults",)
EVERY = TABLE1 + FIB + FAULTS

#: (per-layer metric, computation, end-to-end metric it should move,
#: workloads it should move it on); None computations are filled in by
#: the runner from untraced reps
METRICS: List[Tuple[str, Optional[Callable[[_Layers], float]], Optional[str],
                    Tuple[str, ...]]] = [
    ("tta.simulate.self_pct", lambda s: s.pct("tta.simulate"),
     "wall_s", TABLE1),
    ("tta.simulate.calls", lambda s: s.count("tta.simulate"),
     "wall_s", TABLE1),
    ("tta.simulate.sim_cycles", lambda s: s.total("tta.simulate"),
     "wall_s", TABLE1),
    ("tta.simulate.cycles_per_s", lambda s: s.rate("tta.simulate"),
     "wall_s", TABLE1),
    ("tta.simulate.fallback_ratio",
     lambda s: s.ratio(s.nested.get("tta.simulate", 0),
                       s.count("tta.simulate")),
     "wall_s", TABLE1),
    ("tta.compile_program.self_pct", lambda s: s.pct("tta.compile_program"),
     "wall_s", ("table1-compiled",)),
    ("tta.compile_program.calls", lambda s: s.count("tta.compile_program"),
     "wall_s", ("table1-compiled",)),
    ("tta.codegen.self_pct", lambda s: s.pct("tta.codegen"),
     "wall_s", ("table1-compiled",)),
    ("tta.codegen.compile_calls", lambda s: s.count("tta.codegen"),
     "wall_s", ("table1-compiled",)),
    ("tta.codegen.cache_hit_ratio",
     lambda s: s.ratio(s.count("tta.compile_program")
                       - s.count("tta.codegen"),
                       s.count("tta.compile_program")),
     "wall_s", ("table1-compiled",)),
    *[(f"{layer}.self_pct", functools.partial(_Layers.pct, layer=layer),
       "wall_s", TABLE1)
      for layer in ("programs.build_machine", "programs.load_routes",
                    "programs.build_forwarding_program",
                    "programs.expected_forwarding",
                    "asm.assemble", "asm.schedule")],
    ("estimation.self_pct", lambda s: s.pct("estimation"), "wall_s", EVERY),
    ("estimation.calls", lambda s: s.count("estimation"), "wall_s", EVERY),
    ("workload.synthesize_fib.self_pct",
     lambda s: s.pct("workload.synthesize_fib"), "items_per_s", FIB),
    ("workload.synthesize_fib.calls",
     lambda s: s.count("workload.synthesize_fib"), "items_per_s", FIB),
    ("workload.synthesize_fib.distinct_ratio",
     lambda s: s.ratio(len(set(s.values.get("workload.synthesize_fib", ()))),
                       s.count("workload.synthesize_fib")),
     "items_per_s", FIB),
    ("workload.zipf_addresses.self_pct",
     lambda s: s.pct("workload.zipf_addresses"), "items_per_s", FIB),
    *[(f"routing.load.{kind}.self_pct",
       functools.partial(_Layers.pct, layer=f"routing.load.{kind}"),
       "wall_s", ("fib-build",)) for kind in KINDS],
    *[metric for kind in KINDS for metric in (
        (f"routing.lookup_batch.{kind}.self_pct",
         functools.partial(_Layers.pct, layer=f"routing.lookup_batch.{kind}"),
         "items_per_s", ("fib-lookup",)),
        (f"routing.lookup_batch.{kind}.lookups_per_s",
         functools.partial(_Layers.rate,
                           layer=f"routing.lookup_batch.{kind}"),
         "items_per_s", ("fib-lookup",)))],
    *[(f"{layer}.self_pct", functools.partial(_Layers.pct, layer=layer),
       "wall_s", FAULTS)
      for layer in ("routing.protected.load", "routing.protected.checkpoint",
                    "routing.protected.verify_integrity")],
    ("faults.memory.inject.self_pct", lambda s: s.pct("faults.memory.inject"),
     "wall_s", FAULTS),
    ("faults.memory.inject.calls", lambda s: s.count("faults.memory.inject"),
     "wall_s", FAULTS),
    ("verify.memory_classify.self_pct",
     lambda s: s.pct("verify.memory_classify"), "wall_s", FAULTS),
    ("verify.memory_classify.calls",
     lambda s: s.count("verify.memory_classify"), "wall_s", FAULTS),
    ("dse.journal.fsync_pct", lambda s: s.pct("dse.journal.fsync"),
     "wall_s", FAULTS),
    ("dse.journal.fsyncs", lambda s: s.count("dse.journal.fsync"),
     "wall_s", FAULTS),
    ("dse.pool.submits", lambda s: s.count("dse.pool.submit"),
     "wall_s", FAULTS),
    ("dse.pool.wait_pct", lambda s: s.pct("dse.pool.wait"),
     "wall_s", FAULTS),
    ("trace.unattributed_s", lambda s: s.unattributed_s, None, ()),
    ("trace.overhead_pct", None, None, ()),
]

#: metrics that a --jobs 1 layer pass measures better than the traced
#: reps of the workload's own argv: everything but pool dispatch and
#: the trace's own bookkeeping
POOL_METRICS = ("dse.pool.", "trace.")


def layer_metrics(spans: List[list], active_s: float) -> Dict[str, float]:
    """Every computed per-layer metric of one traced rep.

    *active_s* is the rep's wall time after ``repro.cli`` was imported.
    """
    layers = _Layers(spans, active_s)
    return {name: compute(layers) for name, compute, _, _ in METRICS
            if compute is not None}
