"""Fault-injection layer: fault models, flaps, delay queue, watchdog."""

import pytest

from repro.errors import ConfigurationError, FaultInjectionError, ReproError
from repro.faults import (
    FaultModel,
    FaultStatistics,
    FlapSchedule,
    SimulationWatchdog,
)
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.ripng import METRIC_INFINITY
from repro.router import line_topology, ring_topology
from repro.router.network import Network
from repro.router.router import Ipv6Router


class TestFaultModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(FaultInjectionError):
            FaultModel(drop_probability=1.5)
        with pytest.raises(FaultInjectionError):
            FaultModel(corrupt_probability=-0.1)
        with pytest.raises(FaultInjectionError):
            FaultModel(latency_steps=-1)

    def test_null_model_passes_frames_through_untouched(self):
        model = FaultModel(seed=1)
        assert model.is_null
        frame = b"\x60" + bytes(39)
        assert model.transmit(frame) == [(0, frame)]
        assert model.stats.injected == 1
        assert model.stats.dropped == 0

    def test_deterministic_across_instances(self):
        def sequence(seed):
            model = FaultModel(seed=seed, drop_probability=0.3,
                               corrupt_probability=0.3, jitter_steps=2)
            return [model.transmit(bytes([i]) * 50) for i in range(100)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)

    def test_drop_rate_roughly_honoured(self):
        model = FaultModel(seed=3, drop_probability=0.25)
        for _ in range(1000):
            model.transmit(bytes(40))
        assert 180 <= model.stats.dropped <= 320

    def test_corruption_flips_exactly_one_bit(self):
        model = FaultModel(seed=5, corrupt_probability=1.0)
        frame = bytes(64)
        ((delay, corrupted),) = model.transmit(frame)
        assert delay == 0
        diff = [a ^ b for a, b in zip(frame, corrupted)]
        assert sum(bin(d).count("1") for d in diff) == 1
        assert model.stats.corrupted == 1

    def test_duplication_delivers_twice(self):
        model = FaultModel(seed=2, duplicate_probability=1.0)
        deliveries = model.transmit(b"x" * 40)
        assert len(deliveries) == 2
        assert model.stats.duplicated == 1

    def test_latency_and_jitter_delay_frames(self):
        model = FaultModel(seed=4, latency_steps=3, jitter_steps=2)
        delays = [model.transmit(bytes(40))[0][0] for _ in range(50)]
        assert all(3 <= d <= 5 for d in delays)
        assert model.stats.delayed == 50

    def test_statistics_merge(self):
        a = FaultStatistics(injected=2, dropped=1)
        b = FaultStatistics(injected=3, corrupted=2)
        a.merge(b)
        assert a.injected == 5 and a.dropped == 1 and a.corrupted == 2


class TestFlapSchedule:
    def test_events_pop_in_time_order(self):
        schedule = (FlapSchedule()
                    .link_up(20.0, ("a", 0))
                    .link_down(5.0, ("a", 0)))
        first = schedule.due(10.0)
        assert [e.at for e in first] == [5.0]
        assert not first[0].up
        assert [e.at for e in schedule.due(25.0)] == [20.0]
        assert schedule.exhausted

    def test_flap_validates_ordering(self):
        with pytest.raises(FaultInjectionError):
            FlapSchedule().flap(("a", 0), down_at=10.0, up_at=10.0)
        with pytest.raises(FaultInjectionError):
            FlapSchedule().link_down(-1.0, ("a", 0))

    def test_cannot_extend_mid_consumption(self):
        schedule = FlapSchedule().link_down(1.0, ("a", 0))
        schedule.due(5.0)
        with pytest.raises(FaultInjectionError):
            schedule.link_up(9.0, ("a", 0))

    def test_network_rejects_unknown_flap_endpoint(self):
        network = line_topology(2)
        schedule = FlapSchedule().link_down(1.0, ("ghost", 0))
        with pytest.raises(ReproError):
            network.set_flap_schedule(schedule)

    def test_scheduled_flap_applies_during_step(self):
        network = line_topology(2)
        network.set_flap_schedule(
            FlapSchedule().flap(("r0", 1), down_at=2.0, up_at=4.0))
        link = network.links[0]
        network.step()  # t=0
        network.step()  # t=1
        assert link.up
        network.step()  # t=2: down event applies
        assert not link.up
        network.step()  # t=3
        network.step()  # t=4: up event applies
        assert link.up
        assert network.link_flaps_applied == 2


class TestDelayQueue:
    def test_latency_defers_delivery_by_the_configured_steps(self):
        network = line_topology(2)
        network.attach_fault_model(
            ("r0", 1), FaultModel(seed=1, latency_steps=3))
        converged = network.run_until_converged()
        assert converged.converged
        assert len(network._in_flight) == 0
        prefix = Ipv6Prefix.parse("2001:db8:0:1::/64")
        assert network.tables_agree_on(prefix)

    def test_frames_in_flight_block_quiet_detection(self):
        """A 25-step latency leaves only 5 quiet rounds between periodic
        updates (interval 30): quiet_rounds=20 can then never be met, and
        the in-flight guard must refuse to call the lull between a send
        and its delayed delivery "converged"."""
        network = line_topology(2)
        network.attach_fault_model(
            ("r0", 1), FaultModel(seed=1, latency_steps=25))
        report = network.run_until_converged(max_rounds=200)
        assert not report.converged
        # with a latency shorter than the quiet window, detection works
        network = line_topology(2)
        network.attach_fault_model(
            ("r0", 1), FaultModel(seed=1, latency_steps=5))
        report = network.run_until_converged(max_rounds=200)
        assert report.converged
        assert len(network._in_flight) == 0

    def test_down_link_loses_in_flight_frames(self):
        network = line_topology(2)
        network.attach_fault_model(
            ("r0", 1), FaultModel(seed=1, latency_steps=5))
        network.step()  # boot requests emitted at tick time...
        network.step()  # ...and enter flight on the next delivery pass
        assert len(network._in_flight) > 0
        network.set_link_state(("r0", 1), up=False)
        for _ in range(10):
            network.step()
        assert len(network._in_flight) == 0
        assert network.frames_lost_link_down > 0

    def test_down_link_counts_vanished_frames(self):
        network = line_topology(2)
        network.set_link_state(("r0", 1), up=False)
        for _ in range(5):
            network.step()
        assert network.frames_lost_link_down > 0


class TestZeroFaultTransparency:
    def test_null_models_reproduce_unfaulted_run_exactly(self):
        plain = line_topology(4)
        plain_report = plain.run_until_converged()

        faulted = line_topology(4)
        for index in range(len(faulted.links)):
            faulted.attach_fault_model(
                (f"r{index}", 1), FaultModel(seed=index))
        faulted_report = faulted.run_until_converged()

        assert faulted_report.rounds == plain_report.rounds
        assert faulted_report.messages_delivered == \
            plain_report.messages_delivered
        assert faulted_report.time_elapsed == plain_report.time_elapsed


class TestLinkDownPoisoning:
    def test_mid_line_cut_poisons_then_heals(self):
        """The cut-off side must count the far prefix up to infinity
        (METRIC_INFINITY, before garbage collection removes the entry),
        then relearn it after the link comes back."""
        network = line_topology(5)
        network.run_until_converged()
        prefix = Ipv6Prefix.parse("2001:db8:4:2::/64")
        before = {name: network.route_metric(name, prefix)
                  for name in ("r0", "r1")}
        assert before == {"r0": 5, "r1": 4}

        network.set_link_state(("r1", 1), up=False)  # cut r1 <-> r2
        down_at = network.now
        # step to 200 s after the cut: route timeout (180 s) has fired
        # everywhere, garbage collection (120 s later) has not
        while network.now < down_at + 200.0:
            network.step()
        for name in ("r0", "r1"):
            route = network.routers[name].ripng.routes[prefix]
            assert route.metric == METRIC_INFINITY, name
            assert route.expired, name
        assert not network.tables_agree_on(prefix)
        # the healthy side keeps its routes
        assert network.route_metric("r2", prefix) == 3

        network.set_link_state(("r1", 1), up=True)
        report = network.run_until_converged(max_rounds=900)
        assert report.converged
        after = {name: network.route_metric(name, prefix)
                 for name in ("r0", "r1")}
        assert after == before
        assert network.tables_agree_on(prefix)


class TestConvergenceConfiguration:
    def test_impossible_quiet_window_rejected(self):
        network = line_topology(3)
        with pytest.raises(ConfigurationError, match="quiet"):
            network.run_until_converged(quiet_rounds=30)

    def test_step_seconds_factor_into_the_check(self):
        network = line_topology(3, step_seconds=2.0)
        with pytest.raises(ConfigurationError):
            network.run_until_converged(quiet_rounds=15)
        assert network.run_until_converged(quiet_rounds=14).converged

    def test_network_without_ripng_is_exempt(self):
        network = Network()
        network.add_router(Ipv6Router(
            "a", [Ipv6Address.parse("2001:db8::1")], enable_ripng=False))
        report = network.run_until_converged(max_rounds=40,
                                             quiet_rounds=30)
        assert report.converged


class TestAddInterface:
    def test_add_interface_wires_card_address_and_ripng(self):
        router = Ipv6Router("r", [Ipv6Address.parse("2001:db8:a::1")])
        index = router.add_interface(Ipv6Address.parse("2001:db8:b::1"))
        assert index == 1
        assert len(router.line_cards) == 2
        assert router.line_cards[1].index == 1
        assert router.ripng.interface_count == 2
        new_prefix = Ipv6Prefix.parse("2001:db8:b::/64")
        assert router.ripng.route_metric(new_prefix) == 1
        assert router.table.lookup(
            Ipv6Address.parse("2001:db8:b::42")).interface == 1

    def test_ring_topology_closing_interfaces_are_real(self):
        network = ring_topology(3)
        first = network.routers["r0"]
        last = network.routers["r2"]
        for router in (first, last):
            assert len(router.line_cards) == 3
            assert router.ripng.interface_count == 3
            closing = Ipv6Prefix.of(router.interface_addresses[2], 64)
            assert router.ripng.route_metric(closing) == 1
        network.run_until_converged()
        # closing prefixes are now advertised through RIPng like any other
        assert network.tables_agree_on(
            Ipv6Prefix.parse("2001:db8:ff0::/64"))


class TestWatchdog:
    def test_diagnosis_names_churning_routers(self):
        network = line_topology(3)
        watchdog = SimulationWatchdog(network)
        report = network.run_until_converged(max_rounds=4,
                                             watchdog=watchdog)
        assert not report.converged
        assert report.diagnosis is not None
        assert not report.diagnosis.quiet
        assert set(report.diagnosis.churning_routers) <= {"r0", "r1", "r2"}
        assert report.diagnosis.churning_routers
        assert "churning" in report.diagnosis.summary()

    def test_converged_run_reports_quiet_window(self):
        network = line_topology(3)
        watchdog = SimulationWatchdog(network, window_rounds=20)
        report = network.run_until_converged(watchdog=watchdog)
        assert report.converged
        assert report.diagnosis is None
        assert watchdog.diagnose().quiet

    def test_oscillating_prefix_detected(self):
        network = line_topology(3)
        network.run_until_converged()
        watchdog = SimulationWatchdog(network, window_rounds=500)
        # flap the r1<->r2 link: the far prefix is poisoned (change 1)
        # and relearned after the link returns (change 2) — oscillation
        network.set_link_state(("r1", 1), up=False)
        for _ in range(220):
            network.step()
            watchdog.observe()
        network.set_link_state(("r1", 1), up=True)
        for _ in range(60):
            network.step()
            watchdog.observe()
        diagnosis = watchdog.diagnose()
        assert "2001:db8:2:2::/64" in diagnosis.oscillating_prefixes
        routers = diagnosis.oscillating_prefixes["2001:db8:2:2::/64"]
        assert "r0" in routers or "r1" in routers
