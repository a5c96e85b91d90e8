"""Classic pcap codec, link taps, and capture replay."""

import struct

import pytest

from repro.errors import PcapError
from repro.pcap import (
    CapturedPacket,
    LINKTYPE_RAW,
    LinkTap,
    attach_taps,
    from_pcap_bytes,
    merged_capture,
    percentile,
    read_pcap,
    replay,
    to_pcap_bytes,
    write_pcap,
)
from repro.router.network import line_topology

PACKETS = [
    CapturedPacket(b"\x60" + bytes(45), 0.0),
    CapturedPacket(b"one", 1.5),
    CapturedPacket(b"", 2.000001),
    CapturedPacket(bytes(range(256)), 1234567890.654321),
]


class TestRoundTrip:
    def test_bytes_round_trip_is_identical(self):
        encoded = to_pcap_bytes(PACKETS)
        decoded, linktype = from_pcap_bytes(encoded)
        assert linktype == LINKTYPE_RAW
        assert [p.data for p in decoded] == [p.data for p in PACKETS]
        for got, want in zip(decoded, PACKETS):
            assert got.timestamp == pytest.approx(want.timestamp,
                                                  abs=1e-6)
        # a second encode of the decode is byte-identical
        assert to_pcap_bytes(decoded) == encoded

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "capture.pcap"
        assert write_pcap(str(path), PACKETS) == len(PACKETS)
        first = path.read_bytes()
        write_pcap(str(path), read_pcap(str(path)))
        assert path.read_bytes() == first

    def test_big_endian_captures_are_readable(self):
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0,
                             0xFFFF, LINKTYPE_RAW)
        record = struct.pack(">IIII", 7, 250000, 3, 3) + b"abc"
        packets, linktype = from_pcap_bytes(header + record)
        assert linktype == LINKTYPE_RAW
        assert packets[0].data == b"abc"
        assert packets[0].timestamp == pytest.approx(7.25)


class TestMalformedInput:
    def test_bad_magic(self):
        with pytest.raises(PcapError, match="magic"):
            from_pcap_bytes(b"\x00" * 24)

    def test_pcapng_is_named_in_the_error(self):
        with pytest.raises(PcapError, match="pcapng"):
            from_pcap_bytes(struct.pack("<I", 0x0A0D0D0A) + bytes(20))

    def test_truncated_header(self):
        with pytest.raises(PcapError, match="truncated"):
            from_pcap_bytes(b"\xd4\xc3\xb2\xa1")

    def test_truncated_record(self):
        encoded = to_pcap_bytes(PACKETS)
        with pytest.raises(PcapError, match="truncated"):
            from_pcap_bytes(encoded[:-1])

    def test_unsupported_version(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 1, 0, 0, 0,
                             0xFFFF, LINKTYPE_RAW)
        with pytest.raises(PcapError, match="version"):
            from_pcap_bytes(header)


class TestLinkTap:
    def test_tap_records_and_passes_through(self):
        tap = LinkTap(clock=lambda: 4.5)
        assert tap.transmit(b"frame") == [(0, b"frame")]
        assert tap.captured == [CapturedPacket(b"frame", 4.5)]
        assert tap.stats is None

    def test_tap_stacks_on_an_inner_model(self):
        class Dropper:
            stats = "inner-stats"

            def transmit(self, raw):
                return []

        tap = LinkTap(inner=Dropper(), clock=lambda: 1.0)
        assert tap.transmit(b"frame") == []  # inner model dropped it
        assert len(tap.captured) == 1  # ...but the tap saw it first
        assert tap.stats == "inner-stats"

    def test_network_capture_replays_through_conformance(self, tmp_path):
        network = line_topology(3)
        taps = attach_taps(network)
        assert set(taps) == {"r0:1", "r1:1"}
        network.run_until_converged()
        capture = merged_capture(taps)
        assert capture, "convergence exchanged no frames?"
        times = [packet.timestamp for packet in capture]
        assert times == sorted(times)

        path = tmp_path / "convergence.pcap"
        write_pcap(str(path), capture)
        report = replay(read_pcap(str(path)), table_kind="cam")
        assert report.packets == len(capture)
        # every replayed packet is accounted for by the fixture router
        assert (report.forwarded + report.delivered_local
                + sum(report.dropped.values())) == report.packets
        assert len(report.latencies) == report.packets
        assert report.latency_percentiles["max"] >= \
            report.latency_percentiles["p50"] > 0
        assert "latency_percentiles" in report.to_dict()

    def test_unlinked_endpoint_is_an_error(self):
        network = line_topology(2)
        with pytest.raises(PcapError):
            attach_taps(network, endpoints=[("r0", 7)])


class TestReplayMetrics:
    def test_percentiles_published_to_registry(self):
        from repro.obs import get_registry

        registry = get_registry()
        report = replay([CapturedPacket(b"\x00" * 40)] * 5,
                        table_kind="sequential")
        assert report.packets == 5
        snapshot = registry.snapshot()
        if snapshot.get("enabled", True):
            assert "replay_latency_quantile_seconds" in snapshot["gauges"]
            assert "replay_latency_seconds" in snapshot["histograms"]


class TestPercentile:
    def test_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == 3.0  # round(1.5) banker's -> 2

    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0


class TestAtomicWrite:
    def test_crash_mid_write_preserves_the_previous_capture(
            self, tmp_path, monkeypatch):
        # write_pcap shares the --output crash contract: a failure while
        # rewriting must leave the old capture readable, never a torn one
        path = tmp_path / "capture.pcap"
        write_pcap(str(path), PACKETS)

        def power_loss(src, dst):
            raise OSError("simulated power loss before rename")

        monkeypatch.setattr("os.replace", power_loss)
        with pytest.raises(OSError):
            write_pcap(str(path), [CapturedPacket(b"new", 9.0)])
        assert read_pcap(str(path)) == PACKETS
        assert [p.name for p in tmp_path.iterdir()] == ["capture.pcap"]
