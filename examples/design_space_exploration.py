#!/usr/bin/env python
"""Design-space exploration: regenerate Table 1 and pick a design.

Runs the paper's §4 evaluation — nine architecture instances, each
simulated and physically estimated — then goes beyond it with the
automated explorer the paper names as future work: a 36-point space,
a Pareto front, and a constraint-based selection.

Run:  python examples/design_space_exploration.py
"""

from repro.dse import (
    ArchitectureEvaluator,
    DesignConstraints,
    DesignSpace,
    GreedyExplorer,
    generate_table1,
    pareto_front,
    render_table1,
    shape_checks,
)
from repro.reporting import render_rows


def main() -> None:
    evaluator = ArchitectureEvaluator(table_entries=100, packet_batch=10)

    print("=== Table 1 (paper) vs this reproduction ===")
    rows = generate_table1(evaluator)
    print(render_table1(rows))
    violations = shape_checks(rows)
    print(f"\nqualitative shape checks: "
          f"{'all passed' if not violations else violations}")

    print("\n=== Extension: automated exploration (paper future work) ===")
    space = DesignSpace(bus_counts=(1, 2, 3, 4), fu_set_counts=(1, 2, 3))
    constraints = DesignConstraints(max_power_w=25.0)
    explorer = GreedyExplorer(evaluator, constraints)
    outcome = explorer.explore(space)
    print(f"space: {space.size()} configurations; heuristic evaluated "
          f"{outcome.evaluations_used}")
    assert outcome.best is not None
    print(f"selected design: {outcome.best.summary()}")

    front = pareto_front(outcome.evaluated)
    table = [[r.config.describe(), round(r.required_clock_hz / 1e6),
              round(r.area_mm2, 1), round(r.power.system_w, 2)]
             for r in sorted(front, key=lambda r: r.required_clock_hz)]
    print("\nPareto front over (clock, area, system power):")
    print(render_rows(["design", "clock MHz", "area mm2", "power W"],
                      table))


if __name__ == "__main__":
    main()
