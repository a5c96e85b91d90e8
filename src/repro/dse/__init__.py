"""Design-space exploration: configurations, evaluation, Table 1, search."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".campaign": ("CampaignResult", "CampaignRunner", "EvaluationFailure",
                  "PoisonedEvaluator",
                  "config_from_dict", "config_key", "config_to_dict",
                  "evaluate_guarded", "generate_table1",
                  "run_table1_campaign"),
    ".config": ("ArchitectureConfiguration", "paper_configurations",
                "table1_configurations"),
    ".evaluator": ("ArchitectureEvaluator", "EvaluationResult"),
    ".explorer": ("ExhaustiveExplorer", "ExplorationOutcome",
                  "GreedyExplorer"),
    ".lookup_sweep": ("LookupCell", "LookupSweepResult", "LookupSweepRunner",
                      "plan_cells"),
    ".pareto": ("DesignConstraints", "pareto_front", "select_best"),
    ".sdc": ("SdcSweepResult", "SdcSweepRunner", "SdcTrial", "plan_trials",
             "vulnerability_row"),
    ".protocols": ("EvaluatorProtocol",),
    ".space": ("DesignSpace", "paper_space"),
    ".sweep": ("JournaledSweep", "load_journal", "write_atomic",
               "write_atomic_bytes"),
    ".table1": ("PAPER_TABLE1", "Table1Row", "render_table1",
                "shape_checks"),
})
