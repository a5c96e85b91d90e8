"""Workload generators, cycle model, reporting, CLI."""

import pytest

from repro.cli import main
from repro.dse.config import ArchitectureConfiguration
from repro.ipv6.address import Ipv6Address
from repro.ipv6.packet import Ipv6Datagram, validate_for_forwarding
from repro.programs.cycle_model import (
    crossover_entries,
    fit_cycle_model,
    measure_cycles,
)
from repro.reporting import render_rows, render_sweep
from repro.workload import (
    addresses_for_routes,
    build_datagram,
    forwarding_workload,
    generate_routes,
    random_prefix,
    worst_case_workload,
)
from repro.workload.packets import PAYLOAD_BYTES


class TestRouteGeneration:
    def test_count_and_uniqueness(self):
        routes = generate_routes(100)
        assert len(routes) == 100
        assert len({r.prefix for r in routes}) == 100

    def test_default_route_first_in_list(self):
        routes = generate_routes(10)
        assert routes[0].prefix.length == 0

    def test_without_default(self):
        routes = generate_routes(10, include_default=False)
        assert all(r.prefix.length > 0 for r in routes)

    def test_deterministic_by_seed(self):
        assert generate_routes(20, seed=5) == generate_routes(20, seed=5)
        assert generate_routes(20, seed=5) != generate_routes(20, seed=6)

    def test_prefixes_in_global_unicast(self):
        import random
        rng = random.Random(0)
        for _ in range(50):
            prefix = random_prefix(rng)
            assert prefix.network.value >> 125 == 0b001


class TestPacketGeneration:
    def test_datagrams_are_valid(self):
        routes = generate_routes(30)
        for _iface, raw in forwarding_workload(routes, 20):
            assert validate_for_forwarding(raw) is None
            Ipv6Datagram.from_bytes(raw)

    def test_worst_case_hits_only_default(self):
        routes = generate_routes(30)
        specific = [r for r in routes if r.prefix.length > 0]
        for _iface, raw in worst_case_workload(routes, 15):
            destination = Ipv6Address.from_bytes(raw[24:40])
            assert not any(r.prefix.contains(destination) for r in specific)

    def test_addresses_match_requested_routes(self):
        routes = generate_routes(30)
        addresses = addresses_for_routes(routes, 25, seed=1)
        for address in addresses:
            assert any(r.prefix.contains(address) for r in routes)

    def test_build_datagram_size(self):
        raw = build_datagram(Ipv6Address.parse("2001::1"))
        assert len(raw) == 40 + PAYLOAD_BYTES


class TestCycleModel:
    @pytest.mark.parametrize("kind,rel", [("sequential", 0.15),
                                          ("balanced-tree", 0.35),
                                          ("cam", 0.10)])
    def test_fitted_model_tracks_simulation(self, kind, rel):
        config = ArchitectureConfiguration(bus_count=1, table_kind=kind)
        model = fit_cycle_model(config, sizes=(22, 64), packets=5)
        fresh = measure_cycles(config, 43, packets=5, seed=99)
        assert model.predict(43) == pytest.approx(fresh, rel=rel)

    def test_sequential_grows_linearly(self):
        config = ArchitectureConfiguration(bus_count=1,
                                           table_kind="sequential")
        model = fit_cycle_model(config, sizes=(22, 64), packets=4)
        assert model.predict(200) > 1.8 * model.predict(100)

    def test_crossover_tree_beats_sequential_early(self):
        seq = fit_cycle_model(ArchitectureConfiguration(
            bus_count=1, table_kind="sequential"), sizes=(22, 64), packets=4)
        tree = fit_cycle_model(ArchitectureConfiguration(
            bus_count=1, table_kind="balanced-tree"), sizes=(22, 64),
            packets=4)
        crossover = crossover_entries(seq, tree)
        assert crossover is not None
        assert crossover < 40  # logarithmic wins quickly

    def test_describe(self):
        config = ArchitectureConfiguration(bus_count=1, table_kind="cam")
        model = fit_cycle_model(config, sizes=(22, 64), packets=4)
        assert "cycles(n)" in model.describe()


class TestReporting:
    def test_render_rows_alignment(self):
        text = render_rows(["name", "value"],
                           [["alpha", 1.0], ["beta", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_render_rows_validates_width(self):
        with pytest.raises(ValueError):
            render_rows(["a"], [["x", "y"]])

    def test_render_sweep(self):
        text = render_sweep("sweep", "n", {"seq": [(1, 10), (2, 20)],
                                           "cam": [(1, 3), (2, 3)]})
        assert "sweep" in text and "seq" in text and "cam" in text


class TestCli:
    def test_evaluate(self, capsys):
        assert main(["evaluate", "--buses", "3", "--table", "cam",
                     "--entries", "30"]) == 0
        assert "cam" in capsys.readouterr().out

    def test_ripng(self, capsys):
        assert main(["ripng", "--topology", "line", "--routers", "3"]) == 0
        assert "converged=True" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
