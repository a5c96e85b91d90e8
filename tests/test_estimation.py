"""Physical estimation: sizing, area, power, frequency constraint."""

import pytest

from repro.dse.config import ArchitectureConfiguration
from repro.errors import EstimationError
from repro.estimation import (
    CALIBRATION_PACKET_BYTES,
    MAX_CLOCK_HZ,
    ThroughputConstraint,
    estimate_area,
    estimate_power,
    feasible,
    gate_sizing_factor,
    packet_rate,
    required_clock_hz,
)

BASE = ArchitectureConfiguration(bus_count=1, table_kind="sequential")
BIG = ArchitectureConfiguration(bus_count=3, matchers=3, counters=3,
                                comparators=3, table_kind="sequential")
CAM = ArchitectureConfiguration(bus_count=3, table_kind="cam")


class TestSizing:
    def test_flat_at_low_clock(self):
        assert gate_sizing_factor(50e6) == pytest.approx(1.0, abs=0.01)

    def test_grows_toward_limit(self):
        assert gate_sizing_factor(0.95 * MAX_CLOCK_HZ) > \
            gate_sizing_factor(0.5 * MAX_CLOCK_HZ) > \
            gate_sizing_factor(0.1 * MAX_CLOCK_HZ)

    def test_blowup_near_limit(self):
        assert gate_sizing_factor(MAX_CLOCK_HZ) > 2.5

    def test_beyond_limit_rejected(self):
        with pytest.raises(EstimationError):
            gate_sizing_factor(2 * MAX_CLOCK_HZ)
        assert not feasible(2 * MAX_CLOCK_HZ)
        assert feasible(0.5 * MAX_CLOCK_HZ)

    def test_nonpositive_rejected(self):
        with pytest.raises(EstimationError):
            gate_sizing_factor(0)


class TestArea:
    def test_more_units_more_area(self):
        small = estimate_area(BASE, 100e6).total_mm2
        large = estimate_area(BIG, 100e6).total_mm2
        assert large > small

    def test_aggressive_clock_inflates_logic_not_sram(self):
        slow = estimate_area(BASE, 100e6)
        fast = estimate_area(BASE, 1.0e9)
        assert fast.functional_units > slow.functional_units
        assert fast.memory == slow.memory

    def test_cam_excludes_external_chip_area(self):
        # CAM config has no on-chip table cache, so less memory area
        ram = estimate_area(BASE, 100e6)
        cam = estimate_area(
            ArchitectureConfiguration(bus_count=1, table_kind="cam"), 100e6)
        assert cam.memory < ram.memory

    def test_breakdown_sums(self):
        breakdown = estimate_area(BIG, 200e6)
        assert breakdown.total_mm2 == pytest.approx(
            breakdown.functional_units + breakdown.register_file
            + breakdown.interconnect + breakdown.memory)
        assert set(breakdown.as_dict()) == {
            "functional_units", "register_file", "interconnect", "memory",
            "total"}


class TestPower:
    def test_scales_with_clock(self):
        low = estimate_power(BASE, 100e6).processor_w
        high = estimate_power(BASE, 800e6).processor_w
        assert high > 6 * low  # superlinear: f plus gate sizing

    def test_utilization_modulates_dynamic_power(self):
        busy = estimate_power(BASE, 500e6, bus_utilization=1.0)
        idle = estimate_power(BASE, 500e6, bus_utilization=0.2)
        assert busy.dynamic_w > idle.dynamic_w
        assert idle.dynamic_w > 0  # clock tree floor

    def test_cam_chip_reported_separately(self):
        power = estimate_power(CAM, 100e6)
        assert power.external_cam_w > 0
        assert power.system_w == pytest.approx(
            power.processor_w + power.external_cam_w)
        ram = estimate_power(BASE, 100e6)
        assert ram.external_cam_w == 0

    def test_the_paper_power_narrative(self):
        """~1 GHz logic is unacceptably hot; sub-120 MHz CAM is cheap."""
        hot = estimate_power(BIG, 1.0e9).processor_w
        cool = estimate_power(CAM, 40e6).system_w
        assert hot > 10
        assert cool < 2.5

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            estimate_power(BASE, 100e6, bus_utilization=1.5)


class TestFrequency:
    def test_rate_from_line_rate(self):
        rate = packet_rate(10e9, 250)
        assert rate == pytest.approx(5e6)

    def test_required_clock_is_linear_in_cycles(self):
        one = required_clock_hz(100)
        two = required_clock_hz(200)
        assert two == pytest.approx(2 * one)

    def test_calibration_anchor(self):
        # ~1392 cycles/packet at the calibrated rate lands near 6 GHz
        clock = required_clock_hz(1392)
        assert clock == pytest.approx(6.0e9, rel=0.02)
        assert CALIBRATION_PACKET_BYTES == pytest.approx(290.0)

    def test_constraint_object(self):
        constraint = ThroughputConstraint()
        assert constraint.required_clock(100) == \
            pytest.approx(required_clock_hz(100))
        assert "10 Gbps" in constraint.describe()

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            required_clock_hz(0)
        with pytest.raises(EstimationError):
            packet_rate(0, 100)


class TestCamFixedPoint:
    """One fixed point resolves the CAM's 40 ns search against the clock,
    for the evaluator's simulated cycles and the lookup cost model."""

    def test_lookup_cam_point_is_unchanged(self):
        from repro.estimation.lookup import estimate_lookup_point
        for prefixes in (100, 10_000):
            estimate = estimate_lookup_point(CAM, prefixes, 1.0, 4096)
            # latency 42 at 242 cycles/datagram: 40 ns at 1.04 GHz
            assert estimate.cycles_per_packet == 242.0
            assert estimate.required_clock_hz == 1043103448.275862

    def test_converges_to_a_self_consistent_latency(self):
        from repro.estimation.frequency import cam_search_latency
        calls = []

        def cycles_at(latency):
            calls.append(latency)
            return 200.0 + latency
        assert cam_search_latency(cycles_at) == 42
        assert calls == [1, 35, 41, 42]

    def test_an_oscillating_callback_raises(self):
        from repro.estimation.frequency import (
            MAX_FIXED_POINT_ROUNDS,
            cam_search_latency,
        )
        calls = []

        def cycles_at(latency):
            # 10 cycles need a 2-cycle search, 5 cycles a 1-cycle one
            calls.append(latency)
            return 10.0 if latency == 1 else 5.0
        with pytest.raises(EstimationError, match="did not converge"):
            cam_search_latency(cycles_at)
        assert calls[:4] == [1, 2, 1, 2]
        assert len(calls) == MAX_FIXED_POINT_ROUNDS
