"""IPv4-mapped addresses and the RIPng boot request."""

import pytest

from repro.errors import Ipv6Error
from repro.ipv6.address import Ipv6Address
from repro.ipv6.ripng import COMMAND_REQUEST, RipngMessage, is_full_table_request
from repro.router.ripng_engine import RipngEngine
from repro.routing import make_table


class TestIpv4MappedAddresses:
    def test_parse_mapped(self):
        address = Ipv6Address.parse("::ffff:192.0.2.1")
        assert address.value == (0xFFFF << 32) | 0xC0000201
        assert address.is_ipv4_mapped()

    def test_render_mapped(self):
        address = Ipv6Address((0xFFFF << 32) | 0x7F000001)
        assert address.compressed() == "::ffff:127.0.0.1"
        assert Ipv6Address.parse(address.compressed()) == address

    def test_dotted_quad_in_full_form(self):
        address = Ipv6Address.parse("64:ff9b::192.0.2.33")
        assert address.value & 0xFFFFFFFF == 0xC0000221
        assert not address.is_ipv4_mapped()

    @pytest.mark.parametrize("bad", [
        "::ffff:1.2.3", "::ffff:1.2.3.4.5", "::ffff:256.0.0.1",
        "::ffff:1.2.3.x", "1.2.3.4",
    ])
    def test_bad_quads_rejected(self, bad):
        with pytest.raises(Ipv6Error):
            Ipv6Address.parse(bad)

    def test_plain_addresses_unaffected(self):
        assert Ipv6Address.parse("2001:db8::1").compressed() == "2001:db8::1"


class TestRipngBootRequest:
    def test_first_tick_requests_full_tables(self):
        engine = RipngEngine("r", make_table("cam", capacity=16),
                             interface_count=3)
        out = engine.tick(0.0)
        requests = [payload for _iface, payload in out
                    if RipngMessage.from_bytes(payload).command
                    == COMMAND_REQUEST]
        assert len(requests) == 3
        assert all(is_full_table_request(RipngMessage.from_bytes(p))
                   for p in requests)
        # only once
        later = engine.tick(1.0)
        assert all(RipngMessage.from_bytes(p).command != COMMAND_REQUEST
                   for _i, p in later)
