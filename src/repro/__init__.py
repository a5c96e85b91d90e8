"""repro — TACO protocol-processor evaluation for IPv6 routing.

A complete, from-scratch reproduction of *"Fast Evaluation of Protocol
Processor Architectures for IPv6 Routing"* (Lilius, Truscan, Virtanen,
DATE 2003): a cycle-accurate transport-triggered-architecture (TTA)
processor model with the paper's functional-unit library, an assembly
toolchain (move IR, optimiser, bus scheduler), an IPv6 + RIPng protocol
substrate, three routing-table implementations (sequential, balanced
tree, CAM), physical area/power/frequency estimation, and the
design-space exploration that regenerates the paper's Table 1 — in
parallel over a process pool when asked.

Quick start (the stable facade — prefer it over deep module paths)::

    from repro import api
    rows = api.table1(jobs=4)      # parallel sweep, deterministic output
    print(api.render_table1(rows))
"""

__version__ = "1.1.0"

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".api": ("api", "evaluate", "table1", "explore", "run_chaos",
             "render_table1", "metrics", "metrics_registry",
             "render_metrics", "ArchitectureConfiguration",
             "EvaluationResult", "ExplorationOutcome", "ResilienceReport",
             "Table1Row"),
    ".errors": ("ReproError",),
})
__all__.append("__version__")
