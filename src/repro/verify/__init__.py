"""Self-checking verification oracles.

The cycle-accurate simulator already verifies against the functional
golden model; this package adds the *differential* layer used by
reliability studies: run the same workload with and without injected
faults and classify every divergence (see :mod:`repro.verify.oracle`).

:mod:`repro.verify.backends` applies the same differential discipline
to execution engines: it proves the compiled fast backend bit-identical
to the reference interpreter across the Table 1 configuration grid.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".backends": ("BackendComparison", "BackendEquivalenceReport",
                  "REFERENCE_BACKEND", "diff_signatures", "run_signature",
                  "signature_bytes", "table1_grid", "verify_backend"),
    ".oracle": ("HANG_BUDGET_MULTIPLIER", "MIN_HANG_BUDGET",
                "MIN_MEMORY_STEP_BUDGET", "OUTCOME_CRASH",
                "OUTCOME_DETECTED", "OUTCOME_HANG", "OUTCOME_MASKED",
                "OUTCOME_SDC", "OUTCOMES", "DifferentialOracle",
                "MemoryDifferentialOracle", "TrialOutcome"),
})
