"""IPv6 headers, extension headers, datagrams, and forwarding validation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import Ipv6Error
from repro.ipv6.address import Ipv6Address
from repro.ipv6.header import (
    BASE_HEADER_BYTES,
    PROTO_DESTINATION_OPTIONS,
    PROTO_HOP_BY_HOP,
    PROTO_UDP,
    ExtensionHeader,
    Ipv6Header,
    walk_extension_headers,
)
from repro.ipv6.packet import (
    Ipv6Datagram,
    ValidationFailure,
    validate_for_forwarding,
)

SRC = Ipv6Address.parse("2001:db8::1")
DST = Ipv6Address.parse("2001:db8::2")


def make_header(**overrides):
    defaults = dict(source=SRC, destination=DST, payload_length=8,
                    next_header=PROTO_UDP, hop_limit=64)
    defaults.update(overrides)
    return Ipv6Header(**defaults)


class TestHeader:
    def test_round_trip(self):
        header = make_header(traffic_class=0xA5, flow_label=0xBEEF)
        assert Ipv6Header.from_bytes(header.to_bytes()) == header

    def test_encoding_layout(self):
        data = make_header().to_bytes()
        assert len(data) == BASE_HEADER_BYTES
        assert data[0] >> 4 == 6
        assert data[6] == PROTO_UDP
        assert data[7] == 64
        assert data[8:24] == SRC.to_bytes()
        assert data[24:40] == DST.to_bytes()

    def test_rejects_wrong_version(self):
        data = bytearray(make_header().to_bytes())
        data[0] = 0x40
        with pytest.raises(Ipv6Error):
            Ipv6Header.from_bytes(bytes(data))

    def test_rejects_truncated(self):
        with pytest.raises(Ipv6Error):
            Ipv6Header.from_bytes(b"\x60" + b"\x00" * 10)

    @pytest.mark.parametrize("field,value", [
        ("payload_length", -1), ("payload_length", 70000),
        ("next_header", 256), ("hop_limit", 300),
        ("traffic_class", 256), ("flow_label", 1 << 20),
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(Ipv6Error):
            make_header(**{field: value})

    def test_with_hop_limit(self):
        updated = make_header().with_hop_limit(3)
        assert updated.hop_limit == 3
        assert updated.source == SRC


class TestExtensionHeaders:
    def test_padded_builder(self):
        ext = ExtensionHeader.padded(PROTO_HOP_BY_HOP, PROTO_UDP, b"abc")
        assert ext.length_octets % 8 == 0
        assert ext.next_header == PROTO_UDP

    def test_round_trip(self):
        ext = ExtensionHeader.padded(PROTO_DESTINATION_OPTIONS, PROTO_UDP,
                                     b"\x01\x02\x03\x04\x05\x06")
        parsed, consumed = ExtensionHeader.from_bytes(
            PROTO_DESTINATION_OPTIONS, ext.to_bytes())
        assert parsed == ext
        assert consumed == ext.length_octets

    def test_walk_chain(self):
        e1 = ExtensionHeader.padded(PROTO_HOP_BY_HOP,
                                    PROTO_DESTINATION_OPTIONS)
        e2 = ExtensionHeader.padded(PROTO_DESTINATION_OPTIONS, PROTO_UDP)
        payload = e1.to_bytes() + e2.to_bytes() + b"UDPDATA"
        headers, proto, offset = walk_extension_headers(PROTO_HOP_BY_HOP,
                                                        payload)
        assert [h.protocol for h in headers] == [PROTO_HOP_BY_HOP,
                                                 PROTO_DESTINATION_OPTIONS]
        assert proto == PROTO_UDP
        assert payload[offset:] == b"UDPDATA"

    def test_bad_alignment_rejected(self):
        with pytest.raises(Ipv6Error):
            ExtensionHeader(PROTO_HOP_BY_HOP, PROTO_UDP, b"abc")

    def test_non_extension_protocol_rejected(self):
        with pytest.raises(Ipv6Error):
            ExtensionHeader(PROTO_UDP, PROTO_UDP, b"")


class TestDatagram:
    def test_build_and_parse(self):
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, b"payload!")
        assert Ipv6Datagram.from_bytes(d.to_bytes()) == d
        assert d.header.payload_length == 8
        assert d.upper_layer_protocol == PROTO_UDP

    def test_build_with_extensions_chains_protocols(self):
        ext = [ExtensionHeader.padded(PROTO_HOP_BY_HOP, 0),
               ExtensionHeader.padded(PROTO_DESTINATION_OPTIONS, 0)]
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, b"x" * 4,
                               extension_headers=ext)
        assert [d.header.next_header] + [
            e.next_header for e in d.extension_headers] == [
            PROTO_HOP_BY_HOP, PROTO_DESTINATION_OPTIONS, PROTO_UDP]
        parsed = Ipv6Datagram.from_bytes(d.to_bytes())
        assert parsed.upper_layer_protocol == PROTO_UDP
        assert parsed.payload == b"x" * 4

    def test_forwarded_decrements_hop_limit(self):
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, b"", hop_limit=9)
        assert d.forwarded().header.hop_limit == 8

    def test_forwarded_rejects_exhausted(self):
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, b"", hop_limit=1)
        with pytest.raises(Ipv6Error):
            d.forwarded()

    def test_truncated_rejected(self):
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, b"12345678")
        with pytest.raises(Ipv6Error):
            Ipv6Datagram.from_bytes(d.to_bytes()[:-2])

    @given(st.binary(max_size=200), st.integers(min_value=2, max_value=255))
    def test_round_trip_any_payload(self, payload, hop_limit):
        d = Ipv6Datagram.build(SRC, DST, PROTO_UDP, payload,
                               hop_limit=hop_limit)
        assert Ipv6Datagram.from_bytes(d.to_bytes()).payload == payload


class TestValidation:
    def good(self, **overrides):
        kwargs = dict(source=SRC, destination=DST, next_header=PROTO_UDP,
                      payload=b"x" * 8, hop_limit=64)
        kwargs.update(overrides)
        return Ipv6Datagram.build(**kwargs).to_bytes()

    def test_valid_passes(self):
        assert validate_for_forwarding(self.good()) is None

    def test_bad_version(self):
        raw = bytearray(self.good())
        raw[0] = 0x45
        assert validate_for_forwarding(bytes(raw)) is \
            ValidationFailure.BAD_VERSION

    def test_truncated(self):
        assert validate_for_forwarding(self.good()[:30]) is \
            ValidationFailure.TRUNCATED
        assert validate_for_forwarding(self.good()[:-4]) is \
            ValidationFailure.TRUNCATED

    def test_hop_limit(self):
        assert validate_for_forwarding(self.good(hop_limit=1)) is \
            ValidationFailure.HOP_LIMIT_EXCEEDED

    def test_unspecified_source(self):
        raw = self.good(source=Ipv6Address.parse("::"))
        assert validate_for_forwarding(raw) is \
            ValidationFailure.UNSPECIFIED_SOURCE

    def test_multicast_source(self):
        raw = self.good(source=Ipv6Address.parse("ff02::1"))
        assert validate_for_forwarding(raw) is \
            ValidationFailure.MULTICAST_SOURCE

    def test_loopback_destination(self):
        raw = self.good(destination=Ipv6Address.parse("::1"))
        assert validate_for_forwarding(raw) is \
            ValidationFailure.LOOPBACK_DESTINATION

    def test_unspecified_destination(self):
        raw = self.good(destination=Ipv6Address.parse("::"))
        assert validate_for_forwarding(raw) is \
            ValidationFailure.UNSPECIFIED_DESTINATION
