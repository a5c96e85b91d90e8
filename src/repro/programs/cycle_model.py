"""Analytic cycle model: predict cycles-per-datagram without simulating.

The cycle-accurate simulator is the source of truth, but exhaustive
design-space sweeps and large table-size ablations want a cheap predictor.
The forwarding cost is structurally linear in the table-size term of the
search algorithm::

    cycles(n) = overhead + slope * f(n)

with ``f(n) = n`` for the sequential scan, ``f(n) = log2(n)`` for the
balanced tree, and ``f(n) = 1`` for the hardware-searched options (CAM,
multibit-trie, Bloom). :func:`fit_cycle_model` fits
the two coefficients per configuration from cycle-accurate runs at two
table sizes; tests assert the fitted model tracks fresh simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.dse.config import ArchitectureConfiguration, HARDWARE_SEARCH_KINDS
from repro.errors import EstimationError
from repro.programs.runner import run_forwarding
from repro.workload import generate_routes, worst_case_workload

DEFAULT_FIT_SIZES = (34, 100)
DEFAULT_PACKETS = 8


def _size_term(table_kind: str) -> Callable[[float], float]:
    if table_kind == "sequential":
        return lambda n: float(n)
    if table_kind == "balanced-tree":
        return lambda n: math.log2(max(n, 2))
    return lambda n: 1.0


@dataclass(frozen=True)
class FittedCycleModel:
    """cycles(n) = overhead + slope * f(n) for one configuration."""

    config: ArchitectureConfiguration
    overhead: float
    slope: float

    def predict(self, table_entries: int) -> float:
        if table_entries < 1:
            raise EstimationError(
                f"table size must be positive: {table_entries}")
        term = _size_term(self.config.table_kind)(table_entries)
        return self.overhead + self.slope * term

    def describe(self) -> str:
        kind = self.config.table_kind
        term = {"sequential": "n",
                "balanced-tree": "log2(n)"}.get(kind, "1")
        return (f"{self.config.describe()}: cycles(n) = "
                f"{self.overhead:.1f} + {self.slope:.2f} * {term}")


def measure_cycles(config: ArchitectureConfiguration, table_entries: int,
                   packets: int = DEFAULT_PACKETS,
                   seed: int = 2003) -> float:
    """Cycle-accurate worst-case cycles/packet at one table size."""
    routes = generate_routes(table_entries, seed=seed)
    workload = worst_case_workload(routes, packets, seed=seed + 7)
    result = run_forwarding(config, routes, workload)
    if not result.correct:
        raise EstimationError(
            f"functional mismatch while fitting {config.describe()}")
    return result.cycles_per_packet


def fit_cycle_model(config: ArchitectureConfiguration,
                    sizes: Tuple[int, int] = DEFAULT_FIT_SIZES,
                    packets: int = DEFAULT_PACKETS) -> FittedCycleModel:
    """Fit (overhead, slope) from simulations at two table sizes."""
    n1, n2 = sizes
    if n1 == n2:
        raise EstimationError("need two distinct table sizes to fit")
    term = _size_term(config.table_kind)
    c1 = measure_cycles(config, n1, packets=packets)
    c2 = measure_cycles(config, n2, packets=packets)
    t1, t2 = term(n1), term(n2)
    if config.table_kind in HARDWARE_SEARCH_KINDS:
        # constant model: slope absorbs the (fixed) search cost
        return FittedCycleModel(config=config, overhead=0.0,
                                slope=(c1 + c2) / 2.0)
    slope = (c2 - c1) / (t2 - t1)
    overhead = c1 - slope * t1
    if slope <= 0:
        raise EstimationError(
            f"non-positive slope fitting {config.describe()}: "
            f"{c1} @ {n1}, {c2} @ {n2}")
    return FittedCycleModel(config=config, overhead=max(overhead, 0.0),
                            slope=slope)


def crossover_entries(seq_model: FittedCycleModel,
                      other_model: FittedCycleModel,
                      max_entries: int = 4096) -> Optional[int]:
    """Smallest table size where *other_model* beats the sequential scan."""
    for n in range(1, max_entries + 1):
        if other_model.predict(n) < seq_model.predict(n):
            return n
    return None
