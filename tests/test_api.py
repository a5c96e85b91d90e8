"""The stable ``repro.api`` facade and the evaluator protocols."""

import json

import pytest

import repro
from repro import api
from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    DesignConstraints,
    EvaluatorProtocol,
    GreedyExplorer,
    PoisonedEvaluator,
    generate_table1,
    paper_space,
    render_table1,
)


def small_evaluator():
    return ArchitectureEvaluator(table_entries=20, packet_batch=4)


class StubEvaluator:
    """The minimum the protocol demands — no inheritance, no registry."""

    def __init__(self):
        self.calls = 0
        self._inner = small_evaluator()

    def evaluate(self, config, *, max_cycles=None):
        self.calls += 1
        return self._inner.evaluate(config, max_cycles=max_cycles)


class TestFacade:
    def test_top_level_reexports(self):
        assert repro.evaluate is api.evaluate
        assert repro.table1 is api.table1
        assert repro.explore is api.explore
        assert repro.run_chaos is api.run_chaos
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_evaluate_returns_the_library_dataclass(self):
        result = api.evaluate(
            ArchitectureConfiguration(bus_count=3, table_kind="cam"),
            entries=20, packets=4)
        assert result.feasible
        payload = result.to_dict()
        json.dumps(payload)  # JSON-ready, no custom encoder needed
        assert payload["table_kind"] == "cam"
        assert isinstance(result.render(), str)

    def test_table1_matches_the_deep_module_path(self):
        rows = api.table1(entries=20, packets=4)
        assert len(rows) == 9
        direct = generate_table1(small_evaluator())
        assert render_table1(rows) == render_table1(direct)
        json.dumps([row.to_dict() for row in rows])

    def test_table1_parallel_is_byte_identical(self):
        sequential = api.table1(entries=20, packets=4)
        parallel = api.table1(entries=20, packets=4, jobs=2)
        assert render_table1(parallel) == render_table1(sequential)

    def test_explore_honours_constraints(self):
        outcome = api.explore(max_power=50.0, space=paper_space(),
                              entries=20, packets=4)
        assert outcome.best is not None
        assert outcome.best.power_w is not None
        assert outcome.best.power_w <= 50.0
        payload = outcome.to_dict()
        json.dumps(payload)
        assert isinstance(outcome.render(), str)

    def test_run_chaos_is_deterministic(self):
        first = api.run_chaos(routers=3, seed=7, drop=0.05,
                              chaos_seconds=30.0)
        second = api.run_chaos(routers=3, seed=7, drop=0.05,
                               chaos_seconds=30.0)
        assert first.to_dict() == second.to_dict()
        json.dumps(first.to_dict())
        assert isinstance(first.render(), str)

    def test_run_chaos_rejects_unknown_topology(self):
        with pytest.raises(ValueError):
            api.run_chaos(topology="star")


class TestEvaluatorProtocol:
    def test_concrete_types_satisfy_the_protocol(self):
        assert isinstance(small_evaluator(), EvaluatorProtocol)
        assert isinstance(PoisonedEvaluator(small_evaluator(), []),
                          EvaluatorProtocol)
        # the runner wraps an evaluator; it is not one itself
        runner = CampaignRunner(small_evaluator())
        assert isinstance(runner.evaluator, EvaluatorProtocol)
        assert not isinstance(runner, EvaluatorProtocol)

    def test_explorer_accepts_a_protocol_stub(self):
        stub = StubEvaluator()
        assert isinstance(stub, EvaluatorProtocol)
        explorer = GreedyExplorer(CampaignRunner(stub),
                                  DesignConstraints(max_power_w=50.0))
        outcome = explorer.explore(paper_space())
        assert stub.calls > 0
        assert outcome.best is not None
        assert outcome.evaluations_used == stub.calls


class TestCliOutput:
    def test_evaluate_output_json(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "result.json"
        assert main(["evaluate", "--buses", "3", "--table", "cam",
                     "--entries", "20", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["table_kind"] == "cam"
        assert payload["feasible"] is True

    def test_chaos_output_json(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "report.json"
        assert main(["chaos", "--routers", "3", "--chaos-seconds", "30",
                     "--drop", "0.05", "--output", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["frames"]["injected"] > 0
