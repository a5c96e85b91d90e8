"""Unit and property tests for IPv6 addresses and prefixes."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import Ipv6Error
from repro.ipv6.address import Ipv6Address, Ipv6Prefix, prefix_mask

addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


class TestParsing:
    def test_full_form(self):
        a = Ipv6Address.parse("2001:0db8:0000:0000:0000:0000:0000:0001")
        assert a.value == 0x20010db8000000000000000000000001

    def test_compressed_middle(self):
        assert Ipv6Address.parse("2001:db8::1").value == \
            0x20010db8000000000000000000000001

    def test_all_zero(self):
        assert Ipv6Address.parse("::").value == 0

    def test_leading_compression(self):
        assert Ipv6Address.parse("::1").value == 1

    def test_trailing_compression(self):
        assert Ipv6Address.parse("fe80::").value == 0xfe80 << 112

    def test_double_compression_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("2001::db8::1")

    def test_too_many_groups_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("1:2:3:4:5:6:7:8:9")

    def test_too_few_groups_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("1:2:3")

    def test_oversized_group_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("12345::")

    def test_bad_hex_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("200g::1")

    def test_useless_compression_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse("1:2:3:4:5:6:7::8")


class TestFormatting:
    def test_compresses_longest_run(self):
        a = Ipv6Address.parse("2001:0:0:1:0:0:0:1")
        assert a.compressed() == "2001:0:0:1::1"

    def test_no_single_zero_compression(self):
        a = Ipv6Address.parse("2001:0:2:3:4:5:6:7")
        assert a.compressed() == "2001:0:2:3:4:5:6:7"

    @given(addresses)
    def test_round_trip(self, value):
        a = Ipv6Address(value)
        assert Ipv6Address.parse(a.compressed()) == a
        assert Ipv6Address.parse(
            ":".join(f"{g:04x}" for g in a.groups())) == a


class TestViews:
    def test_words_msw_first(self):
        a = Ipv6Address.parse("2001:db8::42")
        assert a.words() == (0x20010db8, 0, 0, 0x42)

    @given(addresses)
    def test_words_round_trip(self, value):
        a = Ipv6Address(value)
        assert Ipv6Address.from_words(a.words()) == a

    @given(addresses)
    def test_bytes_round_trip(self, value):
        a = Ipv6Address(value)
        assert Ipv6Address.from_bytes(a.to_bytes()) == a

    def test_groups(self):
        a = Ipv6Address.parse("1:2:3:4:5:6:7:8")
        assert a.groups() == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_out_of_range_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Address(1 << 128)
        with pytest.raises(Ipv6Error):
            Ipv6Address(-1)


class TestClassification:
    def test_unspecified(self):
        assert Ipv6Address.parse("::").is_unspecified()

    def test_loopback(self):
        assert Ipv6Address.parse("::1").is_loopback()

    def test_multicast(self):
        assert Ipv6Address.parse("ff02::9").is_multicast()
        assert not Ipv6Address.parse("fe80::1").is_multicast()

    def test_link_local(self):
        assert Ipv6Address.parse("fe80::1").is_link_local()
        assert Ipv6Address.parse("febf::1").is_link_local()
        assert not Ipv6Address.parse("fec0::1").is_link_local()


class TestPrefix:
    def test_parse(self):
        p = Ipv6Prefix.parse("2001:db8::/32")
        assert p.length == 32
        assert p.network == Ipv6Address.parse("2001:db8::")

    def test_host_bits_rejected(self):
        with pytest.raises(Ipv6Error):
            Ipv6Prefix(Ipv6Address.parse("2001:db8::1"), 32)

    def test_of_truncates(self):
        p = Ipv6Prefix.of(Ipv6Address.parse("2001:db8::1"), 32)
        assert p == Ipv6Prefix.parse("2001:db8::/32")

    def test_contains(self):
        p = Ipv6Prefix.parse("2001:db8::/32")
        assert p.contains(Ipv6Address.parse("2001:db8:ffff::1"))
        assert not p.contains(Ipv6Address.parse("2001:db9::1"))

    def test_default_contains_everything(self):
        p = Ipv6Prefix.parse("::/0")
        assert p.contains(Ipv6Address.parse("ffff:ffff::1"))

    def test_mask_words(self):
        p = Ipv6Prefix.parse("2001:db8::/48")
        assert p.mask_words() == (0xFFFFFFFF, 0xFFFF0000, 0, 0)

    @given(addresses, st.integers(min_value=0, max_value=128))
    def test_of_always_contains_source(self, value, length):
        address = Ipv6Address(value)
        assert Ipv6Prefix.of(address, length).contains(address)

    def test_bad_length(self):
        with pytest.raises(Ipv6Error):
            Ipv6Prefix.parse("::/129")
        with pytest.raises(Ipv6Error):
            prefix_mask(-1)

    def test_mask_values(self):
        assert prefix_mask(0) == 0
        assert prefix_mask(128) == (1 << 128) - 1
        assert prefix_mask(1) == 1 << 127

    def test_mask_is_the_top_length_bits_for_every_length(self):
        for length in range(129):
            assert prefix_mask(length) == \
                ((1 << length) - 1) << (128 - length)
        for length in (-1, 129, 203):
            with pytest.raises(Ipv6Error) as caught:
                prefix_mask(length)
            assert str(caught.value) == \
                f"prefix length out of range: {length}"
