"""One evaluation path: the CLI is a thin layer over ``repro.api``, and
``table1``/``explore`` run on one campaign runner at every job count."""

import ast
import inspect
import json
import os

import pytest

from repro import api, cli
from repro.cli import main
from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    PoisonedEvaluator,
    generate_table1,
    paper_space,
)

CLI_SOURCE = os.path.join(os.path.dirname(api.__file__), "cli.py")

#: the only modules the command line may import
CLI_IMPORTS = {"__future__", "argparse", "json", "sys", "typing",
               "repro", "repro.api", "repro.errors"}

POISON = ArchitectureConfiguration(bus_count=3, table_kind="balanced-tree")


def _imports(path):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module


class TestThinCli:
    def test_cli_imports_only_the_facade(self):
        assert set(_imports(CLI_SOURCE)) <= CLI_IMPORTS

    def test_cli_takes_only_the_api_from_the_package(self):
        with open(CLI_SOURCE, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        from_repro = [alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      and node.module == "repro"
                      for alias in node.names]
        assert from_repro == ["api"]


class TestOneCampaignPath:
    def test_explore_outcome_is_identical_at_every_job_count(self):
        options = dict(max_power=50.0, space=paper_space(), entries=20,
                       packets=4)
        sequential = api.explore(**options)
        parallel = api.explore(jobs=2, **options)
        assert json.dumps(parallel.to_dict()) \
            == json.dumps(sequential.to_dict())

    def test_explore_campaign_holds_every_evaluation(self):
        outcome, campaign = api.explore_campaign(
            max_power=50.0, space=paper_space(), entries=20, packets=4)
        assert len(campaign.records) == outcome.evaluations_used
        assert not campaign.failures and campaign.resumed == 0

    def test_table1_campaign_pairs_rows_with_records(self):
        rows, campaign = api.table1_campaign(entries=20, packets=4)
        assert len(rows) == len(campaign.records) == 9
        assert campaign.hazard_counts() == {}

    def test_generate_table1_quarantines_instead_of_raising(self):
        evaluator = PoisonedEvaluator(
            ArchitectureEvaluator(table_entries=20, packet_batch=4),
            [POISON])
        rows = generate_table1(evaluator)
        assert len(rows) == 8
        assert POISON not in [row.measured.config for row in rows]

    def test_runner_result_lists_records_in_first_recorded_order(self):
        runner = CampaignRunner(
            ArchitectureEvaluator(table_entries=20, packet_batch=4))
        configs = paper_space().configurations()[:3]
        for config in reversed(configs):
            runner.run([config])
        assert [r.config for r in runner.result().results] \
            == list(reversed(configs))


class TestCliOnTheFacade:
    def test_table1_hazards_are_summarised_without_a_journal(self, capsys):
        assert main(["table1", "--entries", "10", "--packets", "2",
                     "--hazards"]) == 1  # the small grid breaks shapes
        assert "hazards:" in capsys.readouterr().out

    def test_table1_stdout_is_the_same_with_a_journal(self, capsys,
                                                       tmp_path):
        argv = ["table1", "--entries", "10", "--packets", "2"]
        main(argv)
        plain = capsys.readouterr().out
        main(argv + ["--journal", str(tmp_path / "t1.jsonl")])
        assert capsys.readouterr().out == plain

    def test_resumed_evaluations_are_reported(self, capsys, tmp_path):
        journal = str(tmp_path / "t1.jsonl")
        argv = ["table1", "--entries", "10", "--packets", "2",
                "--journal", journal]
        main(argv)
        first = capsys.readouterr()
        assert "resumed" not in first.err
        main(argv + ["--resume"])
        resumed = capsys.readouterr()
        assert resumed.out == first.out
        assert resumed.err == f"(resumed 9 evaluation(s) from {journal})\n"

    def test_ripng_output_document(self, capsys, tmp_path):
        out = tmp_path / "ripng.json"
        assert main(["ripng", "--routers", "3", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("line of 3: converged=True")
        assert "r2: metric to 2001:db8:0:1::/64 = 3" in stdout
        document = json.loads(out.read_text())
        assert document["routers"] == 3 and document["converged"]

    def test_chaos_network_errors_exit_cleanly(self, capsys):
        assert main(["chaos", "--routers", "1"]) == 2
        assert "chaos scenario failed" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_describe_goes_through_the_facade(self, capsys, fmt):
        assert main(["describe", "--format", fmt]) == 0
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        assert capsys.readouterr().out == api.describe(config, fmt=fmt)


#: outside input the CLI once crashed on with a traceback and exit 1
BAD_INPUT = [
    ["metrics", "--input", "{missing}"],
    ["metrics", "--input", "{not_json}"],
    ["evaluate", "--entries", "0"],
    ["table1", "--entries", "0", "--packets", "1"],
    ["evaluate", "--buses", "0"],
    ["describe", "--buses", "0"],
    ["sdc", "--buses", "0", "--table", "sequential", "--trials", "1"],
    ["ripng", "--routers", "1"],
]


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
    def test_bad_input_exits_2_with_one_line(self, argv, tmp_path, capsys):
        not_json = tmp_path / "not.json"
        not_json.write_text("this is not JSON\n")
        argv = [arg.format(missing=tmp_path / "missing.json",
                           not_json=not_json) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(f"{argv[0]} failed: ")
        assert len(err.splitlines()) == 1

    def test_a_document_without_metrics_is_refused(self, tmp_path, capsys):
        for document in ({"rows": []}, [1, 2]):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(document))
            assert main(["metrics", "--input", str(path)]) == 2
            assert "no metrics section" in capsys.readouterr().err


def _keywords(function, skip=0):
    """The names *function* takes by keyword, after its first *skip*."""
    return {parameter.name for parameter in
            list(inspect.signature(function).parameters.values())[skip:]
            if parameter.kind is not parameter.VAR_KEYWORD}


class TestDeclarations:
    """Each ``cli.COMMANDS`` entry maps its options onto real keywords."""

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_every_option_keyword_is_a_parameter(self, name):
        command = cli.COMMANDS[name]
        accepted = _keywords(command.report, skip=1)
        for function in command.functions:
            accepted |= _keywords(getattr(api, function))
        if command.build is not None:
            accepted |= _keywords(command.build)
        unknown = [option.flag for option in command.options
                   if option.keyword not in accepted
                   and option is not cli._OUTPUT]
        assert unknown == []

    @pytest.mark.parametrize("name", sorted(cli.COMMANDS))
    def test_a_spelled_default_differs_from_the_api_default(self, name):
        command = cli.COMMANDS[name]
        defaults = [getattr(api, function).__kwdefaults__ or {}
                    for function in command.functions]
        if command.build is not None:
            defaults.append(command.build.__kwdefaults__ or {})
        for option in command.options:
            if "default" in option.spec:
                for table in defaults:
                    assert table.get(option.keyword, object()) \
                        != option.spec["default"], option.flag

    def test_options_are_declared_once_per_command(self):
        for name, command in cli.COMMANDS.items():
            flags = [option.flag for option in command.options]
            keywords = [option.keyword for option in command.options]
            assert len(set(flags)) == len(flags), name
            assert len(set(keywords)) == len(keywords), name
