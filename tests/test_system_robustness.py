"""System-level robustness: backpressure, steady state and ingress
fuzzing (malformed frames must be counted, never raised)."""

import random

import pytest

from repro.dse.config import ArchitectureConfiguration
from repro.ipv6.address import Ipv6Address
from repro.programs import run_forwarding
from repro.programs.machine import build_machine
from repro.workload import forwarding_workload, generate_routes


class TestBackpressure:
    def test_tiny_slot_pool_still_forwards_everything(self, routes20):
        """The ippu stalls when slots run out and drains as oppu frees
        them — no datagram may be lost inside the processor."""
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        machine = build_machine(config, slot_count=3)
        machine.load_routes(routes20)
        packets = forwarding_workload(routes20, 20, seed=9)
        result = run_forwarding(config, routes20, packets, machine=machine)
        assert result.correct, result.mismatches
        assert result.packets_forwarded == len(packets)
        # backpressure actually occurred
        assert machine.ippu.stalls_no_slot > 0

    def test_line_card_tail_drop_is_explicit(self, routes20):
        from repro.errors import SimulationError
        config = ArchitectureConfiguration(bus_count=1, table_kind="cam")
        machine = build_machine(config)
        machine.line_cards[0].queue_depth = 2
        packets = forwarding_workload(routes20, 10, seed=9,
                                      interface_count=1)
        with pytest.raises(SimulationError):
            run_forwarding(config, routes20, packets, machine=machine)


class TestSteadyState:
    def test_cycles_per_packet_stable_across_batch_sizes(self, routes100):
        config = ArchitectureConfiguration(bus_count=3,
                                           table_kind="balanced-tree")
        per_packet = []
        for batch in (4, 16, 40):
            packets = forwarding_workload(routes100, batch, seed=21,
                                          default_route_fraction=1.0)
            result = run_forwarding(config, routes100, packets)
            assert result.correct
            per_packet.append(result.cycles_per_packet)
        # fixed startup cost amortises: larger batches within 10 %
        assert per_packet[2] == pytest.approx(per_packet[1], rel=0.10)

    def test_deterministic_simulation(self, routes100, worst_packets):
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        first = run_forwarding(config, routes100, worst_packets)
        second = run_forwarding(config, routes100, worst_packets)
        assert first.report.cycles == second.report.cycles
        assert first.report.moves_executed == second.report.moves_executed


class TestWorkloadEdges:
    def test_single_entry_table(self):
        routes = generate_routes(1)  # just the default route
        for kind in ("sequential", "balanced-tree", "cam"):
            config = ArchitectureConfiguration(bus_count=1, table_kind=kind)
            packets = forwarding_workload(routes, 3, seed=4)
            result = run_forwarding(config, routes, packets)
            assert result.correct, (kind, result.mismatches)
            assert result.packets_forwarded == 3

    def test_large_table(self):
        routes = generate_routes(220)
        config = ArchitectureConfiguration(bus_count=3,
                                           table_kind="balanced-tree")
        packets = forwarding_workload(routes, 6, seed=4)
        result = run_forwarding(config, routes, packets)
        assert result.correct, result.mismatches


def _make_router():
    from repro.router.router import Ipv6Router
    return Ipv6Router("fuzz", [Ipv6Address.parse("2001:db8:aa::1"),
                               Ipv6Address.parse("2001:db8:bb::1")])


def _ripng_datagram(payload: bytes) -> bytes:
    """A well-formed IPv6+UDP datagram carrying *payload* to port 521."""
    from repro.ipv6.header import PROTO_UDP
    from repro.ipv6.packet import Ipv6Datagram
    from repro.ipv6.ripng import RIPNG_MULTICAST_GROUP, RIPNG_PORT
    from repro.ipv6.udp import UdpDatagram
    source = Ipv6Address.parse("fe80::2")
    destination = RIPNG_MULTICAST_GROUP
    udp = UdpDatagram(RIPNG_PORT, RIPNG_PORT, payload=payload)
    return Ipv6Datagram.build(
        source=source, destination=destination, next_header=PROTO_UDP,
        payload=udp.to_bytes(source, destination),
        hop_limit=255).to_bytes()


def _assert_stats_consistent(router):
    """Every received datagram is forwarded, delivered, consumed by
    RIPng, or counted as a drop — nothing may fall through the floor."""
    stats = router.stats
    accounted = (stats.forwarded + stats.delivered_local
                 + stats.ripng_messages + sum(stats.dropped.values()))
    assert stats.received == accounted, stats


def _ingest(router, raw: bytes) -> None:
    assert router.line_cards[0].deliver(raw)
    router.poll_inputs(now=0.0)


class TestIngressFuzz:
    """Truncated / garbage / bit-flipped frames through LineCard.deliver
    -> poll_inputs: counted as drops, never raised."""

    def test_random_garbage_never_raises(self):
        rng = random.Random(0xF00D)
        router = _make_router()
        for _ in range(300):
            raw = bytes(rng.randrange(256)
                        for _ in range(rng.randrange(0, 120)))
            _ingest(router, raw)
        _assert_stats_consistent(router)
        assert sum(router.stats.dropped.values()) > 0

    def test_truncated_ipv6_headers_are_drops(self):
        from repro.ipv6.ripng import request_full_table
        whole = _ripng_datagram(request_full_table().to_bytes())
        router = _make_router()
        for cut in (0, 1, 8, 24, 39, 41, len(whole) - 1):
            _ingest(router, whole[:cut])
        _assert_stats_consistent(router)
        assert sum(router.stats.dropped.values()) == 7
        assert router.stats.ripng_messages == 0

    def test_truncated_ripng_payload_counted_not_raised(self):
        from repro.ipv6.ripng import request_full_table
        payload = request_full_table().to_bytes()
        router = _make_router()
        _ingest(router, _ripng_datagram(payload[:3]))   # ragged header
        _ingest(router, _ripng_datagram(payload[:11]))  # ragged RTE body
        _assert_stats_consistent(router)
        assert router.stats.dropped.get("bad-ripng") == 2
        assert router.ripng.malformed_dropped == 2

    def test_semantically_invalid_ripng_counted_not_raised(self):
        router = _make_router()
        # unknown command 9
        _ingest(router, _ripng_datagram(bytes([9, 1, 0, 0])))
        # metric 0 is outside RFC 2080's 1..16
        bad_metric_rte = bytes(16) + b"\x00\x00" + bytes([64, 0])
        _ingest(router, _ripng_datagram(bytes([2, 1, 0, 0])
                                        + bad_metric_rte))
        _assert_stats_consistent(router)
        assert router.stats.dropped.get("bad-ripng") == 2
        assert router.ripng.malformed_dropped == 2

    def test_bit_flipped_ripng_datagrams_all_accounted(self):
        from repro.ipv6.ripng import request_full_table
        whole = _ripng_datagram(request_full_table().to_bytes())
        router = _make_router()
        flipped = 0
        for bit in range(0, len(whole) * 8, 3):
            mutated = bytearray(whole)
            mutated[bit // 8] ^= 1 << (bit % 8)
            _ingest(router, bytes(mutated))
            flipped += 1
        _assert_stats_consistent(router)
        assert router.stats.received == flipped
        # flips in the UDP payload/ports must fail the checksum
        assert router.stats.dropped.get("bad-udp", 0) > 0

    def test_poll_inputs_converts_library_errors_to_drops(self,
                                                          monkeypatch):
        from repro.errors import Ipv6Error
        router = _make_router()

        def explode(interface, raw, now=0.0):
            raise Ipv6Error("synthetic ingress failure")

        monkeypatch.setattr(router, "receive", explode)
        router.line_cards[0].deliver(bytes(40))
        processed = router.poll_inputs(now=0.0)
        assert processed == 1
        assert router.stats.dropped.get("ingress-error") == 1

    def test_fuzz_does_not_wedge_the_router(self):
        """After a garbage storm the router still learns routes from a
        well-formed RIPng response."""
        from repro.ipv6.address import Ipv6Prefix
        from repro.ipv6.ripng import RouteTableEntry, response
        rng = random.Random(77)
        router = _make_router()
        for _ in range(100):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            _ingest(router, raw)
        prefix = Ipv6Prefix.parse("2001:db8:1234::/64")
        update = response([RouteTableEntry(prefix=prefix, metric=2)])
        _ingest(router, _ripng_datagram(update.to_bytes()))
        assert router.ripng.route_metric(prefix) == 3
        _assert_stats_consistent(router)


class TestRestrictedSockets:
    def test_reduced_connectivity_machine_still_routes(self, routes20):
        """Cold units pinned to one bus: the scheduler adapts, the
        forwarding result is unchanged (see benchmarks E3)."""
        from repro.programs.machine import build_machine
        config = ArchitectureConfiguration(bus_count=3, table_kind="cam")
        machine = build_machine(config, connectivity={
            "cks0": frozenset({0}), "msk0": frozenset({0}),
            "shf0": frozenset({0}), "liu0": frozenset({0})})
        packets = forwarding_workload(routes20, 6, seed=12)
        result = run_forwarding(config, routes20, packets, machine=machine)
        assert result.correct, result.mismatches
        assert result.packets_forwarded == len(packets)
