"""E11 — extension: compiled-backend speedup across the Table 1 grid.

The tentpole claim of the compiled TTA backend
(:mod:`repro.tta.compiled`): pre-decoding each (program, configuration)
pair into specialized step functions buys ~an order of magnitude in
simulated cycles per second while staying bit-identical to the
reference interpreter (proved by :func:`repro.verify.verify_backend`;
this experiment only measures speed).

Method: per Table 1 configuration, build the machine and program once,
then time ``Simulator.run`` alone — best of several repetitions — for
each backend, reading the speed from the same
``tta_cycles_per_second`` obs gauge production runs publish. The
per-shape codegen is warmed first so the numbers reflect steady state
(a campaign's situation), not first-call costs.

Asserts the acceptance floor: >= 5.7x on at least one configuration and
a grid-wide median >= 5x. Printed rows report interpreter and compiled
cycles/sec and the speedup.

The floors are ratios, so they move with the interpreter. The best-case
floor was 10x against a best of 17.3x; the pre-decoded interpreter step
brought the best cell to ~9.8x, so it was re-set with the same relative
margin (10/17.3 of 9.8x). The grid median (~6.7x) still clears its 5x
floor, which stays (EXPERIMENTS.md E11).
"""

from __future__ import annotations

import statistics

import pytest

from repro.dse.config import TABLE_KINDS, paper_configurations
from repro.obs import get_registry
from repro.programs.forwarding import build_forwarding_program
from repro.programs.machine import build_machine
from repro.tta.backends import create_simulator
from repro.workload import generate_routes, worst_case_workload

#: measurement batch — large enough that the slowest config still runs
#: thousands of cycles, so per-run setup cost cannot masquerade as
#: simulation speed
ENTRIES = 100
PACKETS = 16
REPEATS = 3

#: acceptance floors on the compiled/interpreter speed ratio
BEST_FLOOR = 5.7
MEDIAN_FLOOR = 5.0

GRID = [config for kind in TABLE_KINDS
        for config in paper_configurations(kind)]


def _timed_run(machine, program, packets, backend: str) -> float:
    """One fresh run; returns the cycles/sec the simulator published."""
    for iface, raw in packets:
        assert machine.offered_load(iface, raw)
    machine.processor.reset()
    simulator = create_simulator(machine.processor, program,
                                 backend=backend)
    simulator.run()
    return get_registry().gauge(
        "tta_cycles_per_second",
        "simulation speed of the most recent run",
        ("backend",)).value(backend=backend)


def _best_rate(machine, program, packets, backend: str) -> float:
    return max(_timed_run(machine, program, packets, backend)
               for _ in range(REPEATS))


@pytest.mark.benchmark
def test_compiled_speedup_over_table1_grid():
    assert get_registry().enabled, \
        "metrics must be on to read tta_cycles_per_second"
    routes = generate_routes(ENTRIES)
    packets = worst_case_workload(routes, PACKETS)

    rows = []
    speedups = []
    for config in GRID:
        machine = build_machine(config,
                                table_capacity=max(len(routes), 100))
        machine.load_routes(routes)
        program = build_forwarding_program(machine)
        # warm the codegen/code-object cache for this machine shape
        _timed_run(machine, program, packets, "compiled")
        interp = _best_rate(machine, program, packets, "interpreter")
        compiled = _best_rate(machine, program, packets, "compiled")
        speedup = compiled / interp
        speedups.append(speedup)
        rows.append((config.table_kind, config.label(), interp, compiled,
                     speedup))

    print()
    print(f"{'table':<13} {'config':<20} {'interp c/s':>12} "
          f"{'compiled c/s':>13} {'speedup':>8}")
    for kind, label, interp, compiled, speedup in rows:
        print(f"{kind:<13} {label:<20} {interp:>12,.0f} "
              f"{compiled:>13,.0f} {speedup:>7.1f}x")
    median = statistics.median(speedups)
    print(f"best speedup: {max(speedups):.1f}x; grid median: "
          f"{median:.1f}x")

    assert max(speedups) >= BEST_FLOOR, \
        f"no configuration reached {BEST_FLOOR}x (best {max(speedups):.1f}x)"
    assert median >= MEDIAN_FLOOR, \
        f"grid-wide median {median:.1f}x below {MEDIAN_FLOOR}x"
