"""Design-space exploration: configurations, evaluation, Table 1, search."""

from repro.dse.campaign import (
    CampaignPolicy,
    CampaignResult,
    CampaignRunner,
    EvaluationFailure,
    PoisonedEvaluator,
    config_from_dict,
    config_key,
    config_to_dict,
    evaluate_guarded,
    generate_table1,
    run_table1_campaign,
)
from repro.dse.config import (
    ArchitectureConfiguration,
    PAPER_CONFIGURATIONS,
    paper_configurations,
)
from repro.dse.evaluator import ArchitectureEvaluator, EvaluationResult
from repro.dse.explorer import (
    ExhaustiveExplorer,
    ExplorationOutcome,
    GreedyExplorer,
)
from repro.dse.lookup_sweep import (
    LookupCell,
    LookupSweepResult,
    LookupSweepRunner,
    plan_cells,
)
from repro.dse.pareto import DesignConstraints, pareto_front, select_best
from repro.dse.sdc import (
    SdcSweepResult,
    SdcSweepRunner,
    SdcTrial,
    plan_trials,
    vulnerability_row,
)
from repro.dse.protocols import (
    BatchEvaluator,
    supports_batching,
)
from repro.dse.protocols import Evaluator as EvaluatorProtocol
from repro.dse.space import DesignSpace, paper_space
from repro.dse.sweep import (
    JournaledSweep,
    load_journal,
    write_atomic,
    write_atomic_bytes,
)
from repro.dse.table1 import (
    PAPER_TABLE1,
    Table1Row,
    render_table1,
    shape_checks,
)

__all__ = [
    "CampaignPolicy", "CampaignResult", "CampaignRunner",
    "EvaluationFailure", "PoisonedEvaluator", "load_journal",
    "run_table1_campaign", "write_atomic", "write_atomic_bytes",
    "config_from_dict", "config_key", "config_to_dict", "evaluate_guarded",
    "ArchitectureConfiguration", "PAPER_CONFIGURATIONS",
    "paper_configurations",
    "ArchitectureEvaluator", "EvaluationResult",
    "EvaluatorProtocol", "BatchEvaluator", "supports_batching",
    "ExhaustiveExplorer", "ExplorationOutcome", "GreedyExplorer",
    "JournaledSweep",
    "LookupCell", "LookupSweepResult", "LookupSweepRunner", "plan_cells",
    "SdcSweepResult", "SdcSweepRunner", "SdcTrial",
    "plan_trials", "vulnerability_row",
    "DesignConstraints", "pareto_front", "select_best",
    "DesignSpace", "paper_space",
    "PAPER_TABLE1", "Table1Row", "generate_table1", "render_table1",
    "shape_checks",
]
