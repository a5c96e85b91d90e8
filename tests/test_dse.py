"""Design-space exploration: evaluator, Table 1, Pareto, explorers."""

import pytest

from repro.dse import (
    ArchitectureConfiguration,
    ArchitectureEvaluator,
    CampaignRunner,
    DesignConstraints,
    DesignSpace,
    ExhaustiveExplorer,
    GreedyExplorer,
    PoisonedEvaluator,
    generate_table1,
    pareto_front,
    paper_configurations,
    paper_space,
    render_table1,
    select_best,
    shape_checks,
)
from repro.dse.table1 import PAPER_TABLE1, format_clock
from repro.errors import ConfigurationError
from repro.estimation.technology import MAX_CLOCK_HZ
from repro.faults import ChaosEvaluatorFactory


def small_evaluator():
    return ArchitectureEvaluator(table_entries=20, packet_batch=4)


@pytest.fixture(scope="module")
def evaluator():
    return ArchitectureEvaluator(table_entries=40, packet_batch=6)


@pytest.fixture(scope="module")
def table1_rows():
    # module-scoped: the full nine-row evaluation is the expensive part
    return generate_table1(
        ArchitectureEvaluator(table_entries=100, packet_batch=8))


class TestConfig:
    def test_labels(self):
        one, three, fu = paper_configurations("sequential")
        assert one.label() == "1BUS/1FU"
        assert three.label() == "3BUS/1FU"
        assert fu.label() == "3BUS/3CNT,3CMP,3M"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArchitectureConfiguration(bus_count=0)
        with pytest.raises(ConfigurationError):
            ArchitectureConfiguration(table_kind="hashtable")

    def test_search_fu_sets(self):
        config = ArchitectureConfiguration(matchers=3, counters=2,
                                           comparators=3)
        assert config.search_fu_sets == 2


class TestEvaluator:
    def test_infeasible_config_has_no_estimates(self, evaluator):
        result = evaluator.evaluate(ArchitectureConfiguration(
            bus_count=1, table_kind="sequential"))
        # 40 entries at 1 bus still needs > 1 GHz
        assert not result.feasible
        assert result.area is None and result.power is None
        assert "NA" in result.summary()

    def test_feasible_config_estimated(self, evaluator):
        result = evaluator.evaluate(ArchitectureConfiguration(
            bus_count=3, table_kind="cam"))
        assert result.feasible
        assert result.area_mm2 > 0
        assert result.power_w > 0
        assert result.required_clock_hz < MAX_CLOCK_HZ

    def test_cam_fixed_point_inflates_latency(self, evaluator):
        result = evaluator.evaluate(ArchitectureConfiguration(
            bus_count=1, table_kind="cam"))
        # at the resolved clock, 40 ns is multiple cycles
        assert result.config.cam_search_latency > 1
        expected = result.config.cam_search_latency
        import math
        assert expected == max(1, math.ceil(
            40e-9 * result.required_clock_hz))

    @pytest.mark.parametrize("label, latency", [
        ("1BUS/1FU", 13), ("3BUS/1FU", 7), ("3BUS/3CNT,3CMP,3M", 7)])
    def test_cam_row_simulates_each_latency_once(self, label, latency):
        """Latency 1, the first estimate, then the fixed point: three
        simulations, and the reported run is the converged one."""
        [config] = [c for c in paper_configurations("cam")
                    if c.label() == label]
        evaluator = ArchitectureEvaluator()
        result = evaluator.evaluate(config)
        assert evaluator.evaluations == 3
        assert result.config.cam_search_latency == latency
        assert result.run.config == result.config


class TestTable1:
    def test_has_nine_rows_in_paper_order(self, table1_rows):
        assert len(table1_rows) == 9
        assert [r.paper.config_label for r in table1_rows[:3]] == [
            "1BUS/1FU", "3BUS/1FU", "3BUS/3CNT,3CMP,3M"]

    def test_shape_checks_pass(self, table1_rows):
        assert shape_checks(table1_rows) == []

    def test_calibrated_anchor_row(self, table1_rows):
        anchor = table1_rows[0]
        assert anchor.paper.table_kind == "sequential"
        assert anchor.clock_ratio_vs_paper == pytest.approx(1.0, rel=0.05)

    def test_tree_rows_near_paper(self, table1_rows):
        tree = [r for r in table1_rows
                if r.paper.table_kind == "balanced-tree"]
        assert tree[0].clock_ratio_vs_paper == pytest.approx(1.0, rel=0.25)
        assert tree[1].clock_ratio_vs_paper == pytest.approx(1.0, rel=0.25)

    def test_single_bus_rows_fully_utilised(self, table1_rows):
        for row in table1_rows:
            if row.paper.config_label != "1BUS/1FU":
                continue
            if row.paper.table_kind == "cam":
                # the single bus idles while the multi-cycle CAM search is
                # in flight, so full utilisation is impossible here
                assert row.measured.bus_utilization > 0.7
            else:
                assert row.measured.bus_utilization == pytest.approx(1.0)

    def test_render(self, table1_rows):
        text = render_table1(table1_rows)
        assert "sequential" in text and "GHz" in text and "NA" in text

    def _extended_row(self, table1_rows, kind):
        from dataclasses import replace

        from repro.dse.table1 import Table1Row

        measured = table1_rows[-1].measured
        fake = replace(measured, config=replace(measured.config,
                                                table_kind=kind))
        return Table1Row(paper=None, measured=fake)

    def test_extended_kinds_ride_along_unconstrained(self, table1_rows):
        """Post-paper rows (no published counterpart) must not disturb
        the paper's shape checks and must render with a placeholder
        paper clock."""
        extended = self._extended_row(table1_rows, "multibit-trie")
        rows = list(table1_rows) + [extended]
        assert shape_checks(rows) == []
        assert extended.table_kind == "multibit-trie"
        assert extended.clock_ratio_vs_paper is None
        assert extended.to_dict()["paper"] is None
        assert "—" in render_table1(rows)

    def test_incomplete_paper_grid_bails_with_one_violation(
            self, table1_rows):
        violations = shape_checks(table1_rows[:8])
        assert len(violations) == 1
        assert violations[0].startswith("incomplete paper grid")
        # extended rows alone cannot satisfy the grid either
        extended = self._extended_row(table1_rows, "bloom")
        assert shape_checks([extended])[0].startswith(
            "incomplete paper grid")

    def test_paper_reference_data_complete(self):
        assert len(PAPER_TABLE1) == 9
        assert format_clock(6.0e9) == "6.00 GHz"
        assert format_clock(40e6) == "40 MHz"


class TestParetoAndSelection:
    @pytest.fixture(scope="class")
    def results(self, evaluator):
        return CampaignRunner(evaluator).run(
            paper_space().configurations()).results

    def test_front_is_nondominated(self, results):
        front = pareto_front(results)
        assert front
        for member in front:
            for other in results:
                if not (other.feasible and other.area and other.power):
                    continue
                strictly_better = (
                    other.required_clock_hz < member.required_clock_hz
                    and other.area.total_mm2 < member.area.total_mm2
                    and other.power.system_w < member.power.system_w)
                assert not strictly_better

    def test_selection_respects_constraints(self, results):
        tight = DesignConstraints(max_power_w=0.1)
        assert select_best(results, tight) is None
        loose = DesignConstraints(max_power_w=50.0)
        best = select_best(results, loose)
        assert best is not None
        assert best.power.system_w <= 50.0

    def test_selection_prefers_lower_power(self, results):
        best = select_best(results, DesignConstraints())
        admissible = [r for r in results if DesignConstraints().admits(r)]
        assert best.power.system_w == min(r.power.system_w
                                          for r in admissible)


class TestExplorers:
    def test_greedy_matches_exhaustive_on_paper_space(self, evaluator):
        space = paper_space()
        constraints = DesignConstraints(max_power_w=30.0)
        exhaustive = ExhaustiveExplorer(CampaignRunner(evaluator),
                                        constraints).explore(space)
        greedy = GreedyExplorer(CampaignRunner(evaluator),
                                constraints).explore(space)
        assert exhaustive.best is not None
        assert greedy.best is not None
        assert greedy.best.config == exhaustive.best.config
        assert greedy.evaluations_used <= exhaustive.evaluations_used

    def test_cache_counts_only_distinct_evaluations(self):
        class CountingEvaluator:
            def __init__(self, evaluator):
                self.evaluator = evaluator
                self.seen = []

            def evaluate(self, config, max_cycles=None):
                self.seen.append(config.with_cam_latency(1))
                return self.evaluator.evaluate(config,
                                               max_cycles=max_cycles)

            def __getattr__(self, name):
                return getattr(self.evaluator, name)

        counting = CountingEvaluator(small_evaluator())
        explorer = GreedyExplorer(CampaignRunner(counting))
        explorer.explore(paper_space())
        explorer.explore(DesignSpace(bus_counts=(1, 2, 3),
                                     fu_set_counts=(1, 3)))
        outcome = explorer.explore(paper_space())
        # no logical configuration is ever evaluated twice — the cache is
        # keyed on the requested config with the CAM fixed-point latency
        # normalised away, so later explorations reuse earlier results
        assert len(counting.seen) == len(set(counting.seen))
        assert outcome.evaluations_used == len(set(counting.seen))
        assert outcome.evaluations_used == \
            len(outcome.evaluated) + len(outcome.failed)

    def test_explorer_routes_around_failures(self):
        poison = ArchitectureConfiguration(bus_count=1,
                                           table_kind="sequential")
        wrapped = PoisonedEvaluator(small_evaluator(), [poison])
        outcome = GreedyExplorer(CampaignRunner(wrapped)).explore(
            paper_space())
        # the sequential climb dies at its start; the other table options
        # still produce a winner and the failure is reported, not raised
        assert outcome.best is not None
        assert poison in outcome.failed
        assert outcome.evaluations_used == \
            len(outcome.evaluated) + len(outcome.failed)

    def test_explorer_over_campaign_runner(self, tmp_path):
        poison = ArchitectureConfiguration(bus_count=1,
                                           table_kind="sequential")
        journal = tmp_path / "journal.jsonl"
        runner = CampaignRunner(
            PoisonedEvaluator(small_evaluator(), [poison]),
            journal_path=str(journal))
        outcome = GreedyExplorer(runner).explore(paper_space())
        assert outcome.best is not None
        assert runner.quarantined == [poison]
        assert journal.exists() and journal.read_text().strip()

    def test_space_enumeration(self):
        space = DesignSpace(bus_counts=(1, 2), fu_set_counts=(1,),
                            table_kinds=("cam",))
        configs = space.configurations()
        assert len(configs) == space.size() == 2
        assert {c.bus_count for c in configs} == {1, 2}


class TestPooledExplorer:
    #: the cheapest sequential design: a restart point, so the kill hits
    #: the explorer's first frontier
    VICTIM = ArchitectureConfiguration(bus_count=1,
                                       table_kind="sequential")

    def test_killed_worker_is_survived_by_the_engine_alone(self, tmp_path):
        clean_journal = tmp_path / "clean.jsonl"
        clean = GreedyExplorer(CampaignRunner(
            small_evaluator(), journal_path=str(clean_journal))).explore(
                paper_space())
        chaos = ChaosEvaluatorFactory(
            small_evaluator, sentinel_dir=str(tmp_path / "sentinels"),
            kill_config=self.VICTIM)
        journal = tmp_path / "pooled.jsonl"
        runner = CampaignRunner(chaos(), jobs=2, journal_path=str(journal))
        outcome = GreedyExplorer(runner).explore(paper_space())
        # the sweep engine re-probed the killed configuration alone and
        # recovered it; the explorer saw a result, never the crash
        assert runner.worker_crashes == 1
        assert outcome.failed == []
        assert outcome.to_dict() == clean.to_dict()
        assert journal.read_bytes() == clean_journal.read_bytes()
