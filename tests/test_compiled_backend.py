"""Compiled TTA backend: registry, bit-identity, fallback, options."""

import warnings

import pytest

from repro import api
from repro.dse.config import ArchitectureConfiguration, paper_configurations
from repro.dse.evaluator import DEFAULT_EVALUATION_MAX_CYCLES
from repro.errors import ConfigurationError, CycleBudgetError
from repro.obs import MetricsRegistry, set_registry
from repro.programs.forwarding import MODE_BENCH, build_forwarding_program
from repro.programs.machine import build_machine
from repro.programs.runner import RunOptions, run_forwarding
from repro.tta import (
    DEFAULT_RUN_MAX_CYCLES,
    CompiledSimulator,
    Simulator,
    compile_program,
)
from repro.tta.backends import (
    BACKEND_AUTO,
    BACKEND_COMPILED,
    BACKEND_INTERPRETER,
    SimulatorBackend,
    create_simulator,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from repro.verify import table1_grid, verify_backend
from repro.workload import generate_routes, worst_case_workload

CONFIG = ArchitectureConfiguration(bus_count=1, table_kind="sequential")


@pytest.fixture
def registry():
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def _workload(entries=10, packets=2):
    routes = generate_routes(entries)
    return routes, worst_case_workload(routes, packets)


def _machine_and_program(config=CONFIG, entries=10):
    routes, packets = _workload(entries)
    machine = build_machine(config, table_capacity=max(len(routes), 100))
    machine.load_routes(routes)
    program = build_forwarding_program(machine, mode=MODE_BENCH)
    for iface, raw in packets:
        assert machine.offered_load(iface, raw)
    machine.processor.reset()
    return machine, program


class TestRegistry:
    def test_discovery_lists_both_engines(self):
        names = [backend.name for backend in api.backends()]
        assert names[:2] == [BACKEND_INTERPRETER, BACKEND_COMPILED]
        for backend in api.backends():
            assert backend.description
            assert isinstance(backend.accelerated, bool)

    def test_resolution(self):
        assert resolve_backend_name(None) == BACKEND_INTERPRETER
        assert resolve_backend_name(BACKEND_AUTO) == BACKEND_COMPILED
        assert resolve_backend_name("compiled") == "compiled"

    def test_unknown_backend_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown simulator"):
            get_backend("systemc")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(SimulatorBackend(
                name=BACKEND_INTERPRETER, description="dup",
                factory=Simulator))
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(SimulatorBackend(
                name=BACKEND_AUTO, description="reserved",
                factory=Simulator))

    def test_create_simulator_dispatches_by_name(self):
        machine, program = _machine_and_program()
        sim = create_simulator(machine.processor, program)
        assert type(sim) is Simulator
        sim = create_simulator(machine.processor, program,
                               backend="compiled")
        assert isinstance(sim, CompiledSimulator)
        sim = create_simulator(machine.processor, program,
                               backend=BACKEND_AUTO)
        assert isinstance(sim, CompiledSimulator)


class TestBitIdentity:
    def test_table1_grid_is_bit_identical(self):
        report = verify_backend("compiled", entries=10, packet_batch=2)
        assert len(report.comparisons) == len(table1_grid())
        assert report.passed, report.render()
        # the compiled engine must actually have run (no silent fallback)
        for comparison in report.comparisons:
            assert comparison.executed_backend == "compiled"

    def test_cam_latency_above_one_in_default_grid(self):
        latencies = {config.cam_search_latency
                     for config in table1_grid()
                     if config.table_kind == "cam"}
        assert latencies == {1, 2, 3}

    def test_run_forwarding_reports_backend(self):
        routes, packets = _workload()
        result = run_forwarding(CONFIG, routes, packets,
                                options=RunOptions(backend="compiled"))
        assert result.backend == "compiled"
        assert result.correct

    def test_cycle_budget_error_parity(self):
        for config in paper_configurations("balanced-tree")[:1]:
            routes, packets = _workload()
            errors = {}
            for backend in (BACKEND_INTERPRETER, BACKEND_COMPILED):
                with pytest.raises(CycleBudgetError) as excinfo:
                    run_forwarding(
                        config, routes, packets,
                        options=RunOptions(backend=backend, max_cycles=40,
                                           verify=False))
                errors[backend] = str(excinfo.value)
            assert errors[BACKEND_INTERPRETER] == errors[BACKEND_COMPILED]


class TestFallback:
    def _fallback_count(self, registry, reason):
        return registry.counter(
            "simulator_fallback_total",
            "compiled-backend runs that fell back to the interpreter",
            ("reason",)).value(reason=reason)

    def test_hazard_detector_forces_interpreter(self, registry):
        routes, packets = _workload()
        result = run_forwarding(
            CONFIG, routes, packets,
            options=RunOptions(backend="compiled", detect_hazards=True))
        assert result.backend == "interpreter"
        assert result.correct
        assert self._fallback_count(registry, "move_hook") == 1

    def test_transport_filter_forces_interpreter(self, registry):
        def attach(sim):
            sim.transport_filter = lambda cycle, pc, bus, move, value: \
                (move, value)

        routes, packets = _workload()
        result = run_forwarding(
            CONFIG, routes, packets,
            options=RunOptions(backend="compiled", instrument=attach))
        assert result.backend == "interpreter"
        assert result.correct
        assert self._fallback_count(registry, "transport_filter") == 1

    def test_move_hook_tracer_forces_interpreter(self, registry):
        seen = []

        def attach(sim):
            sim.move_hook = lambda cycle, pc, bus, move, value: \
                seen.append(pc)

        routes, packets = _workload()
        result = run_forwarding(
            CONFIG, routes, packets,
            options=RunOptions(backend="compiled", instrument=attach))
        assert result.backend == "interpreter"
        assert seen  # the hook really observed transports
        assert self._fallback_count(registry, "move_hook") == 1

    def test_both_hooks_fold_into_one_reason(self, registry):
        def attach(sim):
            sim.move_hook = lambda *args: None
            sim.transport_filter = lambda cycle, pc, bus, move, value: \
                (move, value)

        routes, packets = _workload()
        result = run_forwarding(
            CONFIG, routes, packets,
            options=RunOptions(backend="compiled", instrument=attach))
        assert result.backend == "interpreter"
        assert self._fallback_count(
            registry, "move_hook+transport_filter") == 1

    def test_fallback_is_bit_identical(self, registry):
        routes, packets = _workload()
        plain = run_forwarding(CONFIG, routes, packets)
        fallen = run_forwarding(
            CONFIG, routes, packets,
            options=RunOptions(backend="compiled",
                               instrument=lambda sim: setattr(
                                   sim, "move_hook", lambda *a: None)))
        assert plain.report.cycles == fallen.report.cycles
        assert plain.report.moves_executed == fallen.report.moves_executed

    def test_pending_interpreter_state_forces_fallback(self, registry):
        machine, program = _machine_and_program()
        sim = create_simulator(machine.processor, program,
                               backend="compiled")
        compiled = compile_program(machine.processor, program)
        sim._compiled = compiled
        assert compiled.untracked_fus, \
            "expected at least one eagerly-applied FU on this machine"
        # drive the *interpreter* loop until an eager FU holds an
        # uncommitted completion, then ask the compiled path to continue
        found = False
        for _ in range(200):
            sim.step()
            if any(fu._pending for fu in compiled.untracked_fus):
                found = True
                break
        assert found, "no pending state arose in 200 interpreted cycles"
        report = sim.run(max_cycles=DEFAULT_RUN_MAX_CYCLES)
        assert report.halted
        assert sim.metrics_backend == "interpreter"
        assert self._fallback_count(registry, "pending_state") == 1


class TestRunOptions:
    def test_unknown_kwargs_raise(self):
        routes, packets = _workload()
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_forwarding(CONFIG, routes, packets, turbo=True)

    def test_options_object_carries_no_warning(self):
        routes, packets = _workload()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run_forwarding(
                CONFIG, routes, packets,
                options=RunOptions(detect_hazards=True))
        assert result.hazard_report is not None

    def test_keyword_shortcuts_override_options(self):
        options = RunOptions(max_cycles=10, verify=True)
        merged = options.merged(max_cycles=99, verify=False)
        assert merged.max_cycles == 99
        assert merged.verify is False
        # None means "not given" and leaves the option untouched
        untouched = options.merged(max_cycles=None, verify=None)
        assert untouched == options
        assert options.max_cycles == 10  # frozen original untouched

    def test_default_max_cycles_is_the_shared_constant(self):
        assert RunOptions().effective_max_cycles == DEFAULT_RUN_MAX_CYCLES
        assert RunOptions(max_cycles=7).effective_max_cycles == 7


class TestMaxCyclesUnification:
    def test_evaluator_and_runner_share_one_ceiling(self):
        assert DEFAULT_EVALUATION_MAX_CYCLES is DEFAULT_RUN_MAX_CYCLES

    def test_cli_cycle_budget_default_matches(self):
        from repro.cli import _build_parser
        args = _build_parser().parse_args(["table1"])
        assert args.cycle_budget == DEFAULT_RUN_MAX_CYCLES


class TestApiThreading:
    def test_api_evaluate_accepts_backend(self):
        result = api.evaluate(CONFIG, entries=10, packets=2,
                              backend="compiled")
        assert result.run is not None
        assert result.run.backend == "compiled"

    def test_evaluator_backend_survives_cam_fixed_point(self):
        cam = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        result = api.evaluate(cam, entries=10, packets=2,
                              backend="compiled")
        assert result.run is not None
        assert result.run.backend == "compiled"

    def test_api_table1_backend_matches_interpreter(self):
        reference = api.table1(entries=10, packets=2)
        compiled = api.table1(entries=10, packets=2, backend="compiled")
        from repro.dse import render_table1
        assert render_table1(compiled) == render_table1(reference)

    def test_service_plan_validates_backend(self, tmp_path):
        from repro.service.jobs import normalise_plan
        from repro.errors import ServiceError
        plan = normalise_plan({"kind": "table1", "backend": "compiled"})
        assert plan["backend"] == "compiled"
        assert normalise_plan({"kind": "table1"})["backend"] is None
        with pytest.raises(ServiceError, match="unknown simulator"):
            normalise_plan({"kind": "table1", "backend": "verilator"})
