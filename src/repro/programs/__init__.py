"""TACO application programs: the tuned per-instance forwarding code."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cycle_model": ("FittedCycleModel", "crossover_entries",
                     "fit_cycle_model", "measure_cycles"),
    ".forwarding": ("ForwardingProgramFactory", "MODE_BENCH", "MODE_ROUTER",
                    "build_forwarding_program"),
    ".machine": ("RouterMachine", "build_machine"),
    ".runner": ("ForwardingRunResult", "RunOptions", "expected_forwarding",
                "run_forwarding"),
})
