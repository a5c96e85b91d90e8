"""E6 — extension: parallel sweep speedup over a process pool.

The paper's pitch is *fast* evaluation of protocol-processor design
spaces; a sweep is embarrassingly parallel, so the obvious next speedup
is to fan it out over worker processes. This experiment sweeps the
paper's 12-configuration space with 1, 2 and 4 workers and reports the
wall-clock speedup curve, asserting at least 2x at 4 workers — while
also asserting the parallel artifact is byte-identical to the sequential
one (parallelism must never change the science).

The swept evaluator is *throttled*: each evaluation carries a fixed
sleep standing in for the large-table workloads (1000+ route entries)
where a single simulate+estimate turn takes seconds. Sleeps overlap
across worker processes exactly as real simulation time does, so the
measured curve reflects pool scaling even on single-core CI runners
where a CPU-bound sweep could never beat sequential. A second,
unthrottled measurement runs on hosts with enough cores and reports
(but does not assert) the CPU-bound curve.
"""

from __future__ import annotations

import os
import time
from functools import partial

import pytest

from repro.dse import (
    ArchitectureEvaluator,
    CampaignRunner,
    paper_space,
)

#: per-evaluation stand-in for heavy simulation time (seconds)
THROTTLE_SECONDS = 0.25

small_factory = partial(ArchitectureEvaluator, table_entries=20,
                        packet_batch=4)


class ThrottledEvaluator:
    """A real (small) evaluator plus a fixed per-evaluation delay."""

    def __init__(self):
        self.evaluator = small_factory()

    def evaluate(self, config, max_cycles=None):
        time.sleep(THROTTLE_SECONDS)
        return self.evaluator.evaluate(config, max_cycles=max_cycles)


def _sweep(factory, jobs, configs):
    """One timed sweep; returns (wall seconds, campaign)."""
    runner = CampaignRunner(factory(), jobs=jobs, chunk_size=1)
    start = time.perf_counter()
    campaign = runner.run(configs)
    return time.perf_counter() - start, campaign


def _speedup_curve(factory, configs, worker_counts=(1, 2, 4)):
    times = {}
    renders = {}
    for jobs in worker_counts:
        times[jobs], campaign = _sweep(factory, jobs, configs)
        renders[jobs] = campaign.render()
        assert len(campaign.results) == len(configs)
    return times, renders


def test_parallel_speedup(benchmark):
    configs = paper_space().configurations()
    times, renders = benchmark.pedantic(
        _speedup_curve, args=(ThrottledEvaluator, configs),
        rounds=1, iterations=1)

    print("\nE6: parallel sweep wall clock "
          f"({len(configs)} configs, {THROTTLE_SECONDS:g} s throttle)")
    for jobs in sorted(times):
        print(f"  jobs={jobs}: {times[jobs]:6.2f} s  "
              f"(speedup {times[1] / times[jobs]:4.2f}x)")

    # parallelism never changes the science
    assert renders[2] == renders[1]
    assert renders[4] == renders[1]
    # the headline claim: >= 2x wall-clock speedup at 4 workers
    assert times[1] / times[4] >= 2.0, (
        f"expected >= 2x speedup at 4 workers, got "
        f"{times[1] / times[4]:.2f}x ({times})")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="CPU-bound scaling needs >= 2 cores")
def test_parallel_speedup_cpu_bound():
    """Unthrottled curve on multi-core hosts: reported, not asserted
    (pool overhead can eat the gain on small per-evaluation costs)."""
    configs = paper_space().configurations()
    times, renders = _speedup_curve(small_factory, configs,
                                    worker_counts=(1, 2))
    print(f"\nE6 (cpu-bound): jobs=1 {times[1]:.2f} s, "
          f"jobs=2 {times[2]:.2f} s "
          f"(speedup {times[1] / times[2]:.2f}x)")
    assert renders[2] == renders[1]
