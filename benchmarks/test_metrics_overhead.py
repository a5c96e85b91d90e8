"""E7 — observability overhead: metrics recording must be ~free.

The obs layer instruments run *boundaries*, never the per-cycle loop, so
the acceptance bar is strict: enabling metrics may cost at most 5% of
wall clock on a full architecture evaluation. Timed best-of-N (min) on
both sides so scheduler noise cancels; run with ``-s`` to see the
measured numbers.
"""

from __future__ import annotations

from time import perf_counter

from repro.dse import ArchitectureConfiguration, ArchitectureEvaluator
from repro.obs import get_registry

REPEATS = 7
CONFIG = ArchitectureConfiguration(bus_count=3, table_kind="sequential")


def best_of(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return min(times)


class TestMetricsOverhead:
    def test_recording_costs_under_five_percent(self):
        evaluator = ArchitectureEvaluator(table_entries=30, packet_batch=4)
        registry = get_registry()
        evaluate = lambda: evaluator.evaluate(CONFIG)
        evaluate()  # warm caches (route tables, code generation paths)
        was_enabled = registry.enabled
        try:
            registry.enable()
            enabled = best_of(evaluate)
            registry.disable()
            disabled = best_of(evaluate)
        finally:
            registry.enabled = was_enabled
        overhead = enabled / disabled - 1
        print(f"\nE7 metrics overhead: enabled {enabled * 1e3:.2f} ms, "
              f"disabled {disabled * 1e3:.2f} ms "
              f"({overhead * 100:+.2f}%) over best-of-{REPEATS}")
        assert overhead < 0.05, (
            f"metrics recording cost {overhead * 100:.1f}% wall clock "
            f"(enabled {enabled:.4f}s vs disabled {disabled:.4f}s)")

    def test_disabled_registry_records_nothing(self):
        registry = get_registry()
        was_enabled = registry.enabled
        try:
            registry.disable()
            before = registry.snapshot()
            ArchitectureEvaluator(table_entries=20,
                                  packet_batch=2).evaluate(CONFIG)
            after = registry.snapshot()
        finally:
            registry.enabled = was_enabled
        # definitions may exist, but no values accumulate while disabled
        assert before == after
