"""IPv6 parse robustness under single-bit (and burst) corruption.

The datapath injector flips exactly these kinds of bits upstream of the
parser, so the parser's contract under corruption is load-bearing for
the whole SDC study: every corrupted datagram must either parse cleanly
or raise :class:`~repro.errors.Ipv6Error` — never an ``IndexError``,
``struct.error``, infinite loop, or silent interpreter-level escape.
"""

import random

import pytest

from repro.errors import Ipv6Error, ReproError
from repro.faults.seeds import make_rng
from repro.ipv6 import (
    ExtensionHeader,
    Ipv6Address,
    Ipv6Datagram,
    PROTO_HOP_BY_HOP,
    validate_for_forwarding,
)
from repro.router.router import Ipv6Router
from repro.workload import build_datagram

A0 = Ipv6Address.parse("2001:db8::1")
A1 = Ipv6Address.parse("2001:db8:0:1::1")
FAR = Ipv6Address.parse("2001:db8:0:2::9")


def corpus():
    """Valid datagrams of different shapes (plain, ext-header chain)."""
    plain = build_datagram(FAR)
    chained = Ipv6Datagram.build(
        A0, FAR, 59, b"payload!",
        extension_headers=(ExtensionHeader(PROTO_HOP_BY_HOP, 59,
                                           bytes(6)),)).to_bytes()
    return [plain, chained]


def flip_bit(raw: bytes, bit: int) -> bytes:
    data = bytearray(raw)
    data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)


class TestSingleBitFlips:
    """Exhaustive: every single-bit corruption of every corpus datagram."""

    @pytest.mark.parametrize("index", range(len(corpus())))
    def test_parse_never_escapes_the_error_contract(self, index):
        raw = corpus()[index]
        for bit in range(len(raw) * 8):
            corrupted = flip_bit(raw, bit)
            try:
                validate_for_forwarding(corrupted)
            except Ipv6Error:
                pass
            try:
                datagram = Ipv6Datagram.from_bytes(corrupted)
            except Ipv6Error:
                continue
            # a parse that succeeded must be stable under round-trip
            again = Ipv6Datagram.from_bytes(datagram.to_bytes())
            assert again == datagram, f"bit {bit}: reparse diverged"

    def test_some_flips_parse_and_some_are_rejected(self):
        raw = corpus()[0]
        verdicts = set()
        for bit in range(len(raw) * 8):
            try:
                Ipv6Datagram.from_bytes(flip_bit(raw, bit))
                verdicts.add("parsed")
            except Ipv6Error:
                verdicts.add("rejected")
        # the corruption model is non-trivial in both directions
        assert verdicts == {"parsed", "rejected"}


class TestBurstCorruption:
    def test_seeded_multi_bit_bursts(self):
        rng = make_rng(2026)
        for raw in corpus():
            for _ in range(150):
                data = bytearray(raw)
                for _ in range(rng.randrange(2, 9)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                corrupted = bytes(data)
                try:
                    datagram = Ipv6Datagram.from_bytes(corrupted)
                except ReproError:
                    continue
                again = Ipv6Datagram.from_bytes(datagram.to_bytes())
                assert again == datagram

    def test_truncations_are_rejected_not_crashed(self):
        raw = corpus()[1]
        for length in range(len(raw)):
            try:
                Ipv6Datagram.from_bytes(raw[:length])
            except Ipv6Error:
                continue


class TestRouterUnderCorruption:
    """The router's receive path must drop garbage, never raise."""

    def make_router(self):
        return Ipv6Router("r", [A0, A1], table_kind="sequential",
                          enable_ripng=False)

    def test_single_bit_flips_never_crash_the_router(self):
        raw = corpus()[0]
        router = self.make_router()
        total = len(raw) * 8
        for bit in range(total):
            router.receive(0, flip_bit(raw, bit))
        assert router.stats.received == total
        # every datagram is accounted for: forwarded, delivered, or
        # dropped with a reason (ICMP replies ride on top of drops)
        accounted = (router.stats.forwarded
                     + router.stats.delivered_local
                     + sum(router.stats.dropped.values()))
        assert accounted == total

    def test_burst_corruption_is_counted_as_drops(self):
        rng = random.Random(7)
        router = self.make_router()
        raw = corpus()[0]
        for _ in range(200):
            data = bytearray(raw)
            for _ in range(rng.randrange(1, 12)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            router.receive(0, bytes(data))
        assert router.stats.received == 200
        assert (router.stats.forwarded + router.stats.delivered_local
                + sum(router.stats.dropped.values())) == 200
