"""UDP and ICMPv6 codecs over the IPv6 pseudo-header."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChecksumError, Ipv6Error
from repro.ipv6.address import Ipv6Address
from repro.ipv6.icmpv6 import (
    MAX_ERROR_MESSAGE_BYTES,
    TYPE_DESTINATION_UNREACHABLE,
    TYPE_TIME_EXCEEDED,
    Icmpv6Message,
    destination_unreachable,
    echo_request,
    time_exceeded,
)
from repro.ipv6.udp import UdpDatagram

SRC = Ipv6Address.parse("2001:db8::1")
DST = Ipv6Address.parse("2001:db8::2")


class TestUdp:
    def test_round_trip(self):
        udp = UdpDatagram(source_port=521, destination_port=521,
                          payload=b"ripng message")
        wire = udp.to_bytes(SRC, DST)
        parsed = UdpDatagram.from_bytes(wire, SRC, DST)
        assert parsed == udp

    @given(st.binary(max_size=256),
           st.integers(min_value=0, max_value=65535),
           st.integers(min_value=0, max_value=65535))
    def test_round_trip_property(self, payload, sport, dport):
        udp = UdpDatagram(source_port=sport, destination_port=dport,
                          payload=payload)
        assert UdpDatagram.from_bytes(udp.to_bytes(SRC, DST), SRC, DST) == udp

    def test_corruption_detected(self):
        wire = bytearray(UdpDatagram(1, 2, b"data").to_bytes(SRC, DST))
        wire[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            UdpDatagram.from_bytes(bytes(wire), SRC, DST)

    def test_wrong_pseudo_header_detected(self):
        wire = UdpDatagram(1, 2, b"data").to_bytes(SRC, DST)
        other = Ipv6Address.parse("2001:db8::99")
        with pytest.raises(ChecksumError):
            UdpDatagram.from_bytes(wire, SRC, other)

    def test_zero_checksum_rejected(self):
        wire = bytearray(UdpDatagram(1, 2, b"data").to_bytes(SRC, DST))
        wire[6:8] = b"\x00\x00"
        with pytest.raises(ChecksumError):
            UdpDatagram.from_bytes(bytes(wire), SRC, DST)

    def test_truncated_rejected(self):
        with pytest.raises(Ipv6Error):
            UdpDatagram.from_bytes(b"\x00\x01", SRC, DST)

    def test_bad_length_field(self):
        wire = bytearray(UdpDatagram(1, 2, b"data").to_bytes(SRC, DST))
        wire[4:6] = (3).to_bytes(2, "big")  # below the header minimum
        with pytest.raises(Ipv6Error):
            UdpDatagram.from_bytes(bytes(wire), SRC, DST)

    def test_port_validation(self):
        with pytest.raises(Ipv6Error):
            UdpDatagram(source_port=-1, destination_port=0)
        with pytest.raises(Ipv6Error):
            UdpDatagram(source_port=0, destination_port=70000)


class TestIcmpv6:
    def test_round_trip(self):
        message = Icmpv6Message(type=128, code=0, body=b"ping")
        wire = message.to_bytes(SRC, DST)
        assert Icmpv6Message.from_bytes(wire, SRC, DST) == message

    def test_corruption_detected(self):
        wire = bytearray(Icmpv6Message(128, 0, b"ping").to_bytes(SRC, DST))
        wire[5] ^= 0x80
        with pytest.raises(ChecksumError):
            Icmpv6Message.from_bytes(bytes(wire), SRC, DST)

    def test_time_exceeded_embeds_invoker(self):
        invoking = b"\x60" + b"\x01" * 60
        message = time_exceeded(invoking)
        assert message.type == TYPE_TIME_EXCEEDED
        assert invoking in message.body

    def test_error_respects_minimum_mtu(self):
        huge = b"\x60" + b"\xaa" * 2000
        message = destination_unreachable(huge)
        assert message.type == TYPE_DESTINATION_UNREACHABLE
        wire_size = len(message.to_bytes(SRC, DST)) + 40
        assert wire_size <= MAX_ERROR_MESSAGE_BYTES

    def test_field_validation(self):
        with pytest.raises(Ipv6Error):
            Icmpv6Message(type=300, code=0)
        with pytest.raises(Ipv6Error):
            echo_request(identifier=70000, sequence=0)
