"""Compiled TTA backend: selection, bit-identity, fallback, options."""

import os
import subprocess
import sys
import warnings

import pytest

from repro import api
from repro.dse.config import ArchitectureConfiguration, paper_configurations
from repro.errors import ConfigurationError, CycleBudgetError, \
    SimulationError
from repro.obs import MetricsRegistry, set_registry
from repro.programs.forwarding import build_forwarding_program
from repro.programs.machine import build_machine
from repro.programs.runner import RunOptions, run_forwarding
from repro.tta import compiled as compiled_backend
from repro.tta import (
    DEFAULT_MAX_CYCLES,
    CompiledSimulator,
    DataMemory,
    FunctionalUnit,
    Immediate,
    Instruction,
    Interconnect,
    Move,
    PortKind,
    PortRef,
    ProgramMemory,
    RegisterFileUnit,
    Simulator,
    TacoProcessor,
    compile_program,
)
from repro.tta.backends import (
    BACKEND_AUTO,
    BACKEND_COMPILED,
    BACKEND_INTERPRETER,
    create_simulator,
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
    program = build_forwarding_program(machine)
    for iface, raw in packets:
        assert machine.offered_load(iface, raw)
    machine.processor.reset()
    return machine, program


class TestRegistry:
    def test_discovery_lists_both_engines(self):
        assert api.backends() == (BACKEND_INTERPRETER, BACKEND_COMPILED)

    def test_resolution(self):
        assert resolve_backend_name(None) == BACKEND_INTERPRETER
        assert resolve_backend_name(BACKEND_AUTO) == BACKEND_COMPILED
        assert resolve_backend_name("compiled") == "compiled"

    def test_unknown_backend_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown simulator"):
            resolve_backend_name("systemc")
        machine, program = _machine_and_program()
        with pytest.raises(ConfigurationError, match="unknown simulator"):
            create_simulator(machine.processor, program, backend="systemc")

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


#: runs the CLI in-process, then prints on its last stdout line every
#: top-level package the run imported beyond interpreter start-up
_IMPORT_PROBE = """
import runpy, sys
before = {name.partition(".")[0] for name in sys.modules}
sys.argv = ["repro.cli"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
after = {name.partition(".")[0] for name in sys.modules}
print(code, *sorted(after - before))
"""


class TestImports:
    @pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                        reason="needs sys.stdlib_module_names (3.10+)")
    def test_compiled_table1_imports_only_the_standard_library(self):
        # The compiled backend's end-of-run reduction is plain Python; a
        # run must not pay for importing an array library.
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            api.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, "table1", "--entries",
             "40", "--packets", "6", "--backend", "compiled"],
            env=env, capture_output=True, text=True, timeout=120)
        code, *imported = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stderr
        assert "repro" in imported
        # dunder entries (``__mp_main__``) are main-module aliases
        third_party = [name for name in imported if name != "repro"
                       and name not in sys.stdlib_module_names
                       and not name.startswith("__")]
        assert third_party == []


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

    def test_premature_read_error_parity(self):
        """A move that reads a result port before its operation
        completes raises the same error on both backends."""

        class SlowUnit(FunctionalUnit):
            kind = "slow"
            latency = 3

            def _declare_ports(self):
                self.add_port("t", PortKind.TRIGGER)
                self.add_port("r", PortKind.RESULT)

            def _execute(self, trigger_port, value, cycle):
                self.finish(cycle, {"r": value + 1})

        errors = []
        for backend in (BACKEND_INTERPRETER, BACKEND_COMPILED):
            processor = TacoProcessor(
                Interconnect(bus_count=1),
                [SlowUnit("slow0"), RegisterFileUnit("gpr", 2)],
                data_memory=DataMemory(16))
            program = ProgramMemory([
                Instruction.of([Move(Immediate(4), PortRef("slow0", "t"))],
                               1),
                Instruction.of([Move(PortRef("slow0", "r"),
                                     PortRef("gpr", "r0"))], 1),
                Instruction.of([Move(Immediate(0), PortRef("nc", "halt"))],
                               1)])
            processor.reset()
            simulator = create_simulator(processor, program, backend=backend)
            with pytest.raises(SimulationError) as excinfo:
                simulator.run()
            errors.append((simulator.metrics_backend, str(excinfo.value)))
        message = "cycle 1: slow0.r not valid until cycle 3"
        assert errors == [(BACKEND_INTERPRETER, message),
                          (BACKEND_COMPILED, message)]


def _bindings(function):
    """The objects a generated function binds, by parameter name."""
    code = function.__code__
    defaults = function.__defaults__ or ()
    names = code.co_varnames[code.co_argcount - len(defaults):
                             code.co_argcount]
    return dict(zip(names, defaults))


def _port_state(machine):
    return {(fu.name, port.name): (port.value, port.valid_from_cycle)
            for fu in machine.processor.fus.values()
            for port in fu.ports.values()}


class TestSharedCode:
    @pytest.mark.parametrize("config", [
        CONFIG, ArchitectureConfiguration(bus_count=3, table_kind="cam")],
        ids=lambda config: f"{config.table_kind}-{config.bus_count}bus")
    def test_machines_share_code_but_not_ports(self, config):
        machine_a, program = _machine_and_program(config)
        machine_b, _ = _machine_and_program(config)
        reference, _ = _machine_and_program(config)
        compiled_a = compile_program(machine_a.processor, program)
        compiled_b = compile_program(machine_b.processor, program)
        steps_a = _bindings(compiled_a.drive)["_steps"]
        steps_b = _bindings(compiled_b.drive)["_steps"]
        assert compiled_a.drive.__code__ is compiled_b.drive.__code__
        ports_a = {id(port) for fu in machine_a.processor.fus.values()
                   for port in fu.ports.values()}
        bound_ports = 0
        for step_a, step_b in zip(steps_a, steps_b):
            assert step_a.__code__ is step_b.__code__
            for name, obj in _bindings(step_a).items():
                assert _bindings(step_b)[name] is not obj, name
                if name.startswith("_p_"):
                    assert id(obj) in ports_a, name
                    bound_ports += 1
        assert bound_ports
        # running B must not touch a single port of A
        before = _port_state(machine_a)
        sim_b = CompiledSimulator(machine_b.processor, program)
        sim_b._compiled = compiled_b
        report_b = sim_b.run(max_cycles=DEFAULT_MAX_CYCLES)
        assert _port_state(machine_a) == before
        assert _port_state(machine_b) != before
        sim_a = CompiledSimulator(machine_a.processor, program)
        sim_a._compiled = compiled_a
        report_a = sim_a.run(max_cycles=DEFAULT_MAX_CYCLES)
        assert sim_a.metrics_backend == sim_b.metrics_backend == "compiled"
        expected = Simulator(reference.processor, program).run(
            max_cycles=DEFAULT_MAX_CYCLES)
        assert report_a == expected
        assert report_b == expected
        assert _port_state(machine_a) == _port_state(reference)

    def test_table1_codegen_volume(self, monkeypatch):
        # each distinct step body is compiled once, in at most one
        # compile() per program; whole-program caching compiled 658 KB
        monkeypatch.setattr(compiled_backend, "_CODE_CACHE", {})
        sources = []
        per_program = []

        def counting_compile(source, *args):
            sources.append(source)
            return compile(source, *args)

        def counting_compile_program(*args, **kwargs):
            before = len(sources)
            result = compile_program(*args, **kwargs)
            per_program.append(len(sources) - before)
            return result

        monkeypatch.setattr(compiled_backend, "compile", counting_compile,
                            raising=False)
        monkeypatch.setattr(compiled_backend, "compile_program",
                            counting_compile_program)
        api.table1(backend="compiled")
        assert len(per_program) >= 9
        assert max(per_program) <= 1
        assert sources
        assert sum(len(source) for source in sources) <= 250_000


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
        # step the *interpreter* loop, leave a latency-2 completion on an
        # FU the schedule does not commit (the interpreter applies
        # latency-1 results at the trigger, so stepping alone leaves
        # none), then ask the compiled path to continue
        sim.step()
        compiled.untracked_fus[0].finish(sim.cycle, {}, latency=2)
        assert any(fu._pending for fu in compiled.untracked_fus)
        report = sim.run(max_cycles=DEFAULT_MAX_CYCLES)
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

    def test_default_max_cycles_is_the_shared_constant(self):
        assert RunOptions().max_cycles is DEFAULT_MAX_CYCLES
        assert RunOptions(max_cycles=7).max_cycles == 7


class TestMaxCyclesUnification:
    def test_every_path_defaults_to_the_one_ceiling(self):
        """Both simulators and the public API carry the one constant."""
        import inspect
        assert DEFAULT_MAX_CYCLES == 5_000_000
        for run in (Simulator.run, CompiledSimulator.run):
            assert inspect.signature(run).parameters["max_cycles"].default \
                is DEFAULT_MAX_CYCLES
        assert api.DEFAULT_MAX_CYCLES is DEFAULT_MAX_CYCLES

    def test_evaluator_and_runner_share_one_ceiling(self, monkeypatch):
        """api.evaluate through the evaluator and CampaignRunner run under
        the same ceiling as run_forwarding when no budget is given."""
        from repro.dse import CampaignRunner, evaluator
        budgets = []
        real_run_forwarding = evaluator.run_forwarding

        def spy(*args, options, **kwargs):
            budgets.append(options.max_cycles)
            return real_run_forwarding(*args, options=options, **kwargs)
        monkeypatch.setattr(evaluator, "run_forwarding", spy)
        api.evaluate(CONFIG, entries=10, packets=2)
        assert budgets == [DEFAULT_MAX_CYCLES]
        runner = CampaignRunner(evaluator.ArchitectureEvaluator(
            table_entries=10, packet_batch=2))
        assert runner.cycle_budget is DEFAULT_MAX_CYCLES

    def test_cli_cycle_budget_default_matches(self):
        from repro.cli import _build_parser
        for command in ("table1", "explore"):
            args = _build_parser().parse_args([command])
            assert args.cycle_budget is DEFAULT_MAX_CYCLES


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
