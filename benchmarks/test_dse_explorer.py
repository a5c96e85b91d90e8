"""E1 — extension: the automated DSE tool the paper names as future work.

"We would like to develop a tool that automates the design space
exploration phase, which based on some heuristics will suggest good
solutions" (§5). The greedy hill-climbing explorer must select the same
design as the exhaustive sweep on a 36-point space while evaluating
fewer configurations.
"""

from __future__ import annotations

from repro.dse import (
    CampaignRunner,
    DesignConstraints,
    DesignSpace,
    ExhaustiveExplorer,
    GreedyExplorer,
    pareto_front,
)
from repro.reporting import render_rows


def test_heuristic_explorer(benchmark, evaluator):
    space = DesignSpace(bus_counts=(1, 2, 3, 4), fu_set_counts=(1, 2, 3))
    constraints = DesignConstraints(max_power_w=25.0)

    exhaustive = ExhaustiveExplorer(CampaignRunner(evaluator),
                                    constraints).explore(space)

    greedy_explorer = GreedyExplorer(CampaignRunner(evaluator), constraints)
    greedy = benchmark.pedantic(greedy_explorer.explore, args=(space,),
                                rounds=1, iterations=1)

    assert exhaustive.best is not None
    assert greedy.best is not None
    print()
    print(f"space size: {space.size()} configurations")
    print(f"exhaustive: {exhaustive.evaluations_used} evaluations -> "
          f"{exhaustive.best.summary()}")
    print(f"greedy:     {greedy.evaluations_used} evaluations -> "
          f"{greedy.best.summary()}")

    # the heuristic reaches the exhaustive optimum with fewer evaluations
    assert greedy.best.config == exhaustive.best.config
    assert greedy.evaluations_used < exhaustive.evaluations_used

    front = pareto_front(exhaustive.evaluated)
    rows = [[r.config.describe(),
             round(r.required_clock_hz / 1e6),
             round(r.area_mm2, 1), round(r.power_w, 2)]
            for r in sorted(front, key=lambda r: r.required_clock_hz)]
    print()
    print(render_rows(["pareto-optimal design", "clock MHz", "area mm2",
                       "power W"], rows))
    assert front
    # the selected design is on the Pareto front
    assert any(r.config == exhaustive.best.config for r in front)
