"""RIPng distance-vector engine behaviour (RFC 2080 semantics)."""

import pytest

from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.ripng import (
    METRIC_INFINITY,
    RipngMessage,
    RouteTableEntry,
    request_full_table,
    response,
)
from repro.router.ripng_engine import RipngEngine
from repro.routing import make_table

GW1 = Ipv6Address.parse("fe80::1")
GW2 = Ipv6Address.parse("fe80::2")
P_A = Ipv6Prefix.parse("2001:aa::/32")
P_B = Ipv6Prefix.parse("2001:bb::/32")


@pytest.fixture
def engine():
    table = make_table("balanced-tree", capacity=64)
    e = RipngEngine("r", table, interface_count=2)
    e.add_connected(Ipv6Address.parse("2001:db8:0:1::1"), 0)
    return e


def feed(engine, prefix, metric, sender=GW1, interface=0, now=0.0):
    payload = response([RouteTableEntry(prefix=prefix,
                                        metric=metric)]).to_bytes()
    return engine.receive(payload, sender=sender, interface=interface,
                          now=now)


class TestLearning:
    def test_learns_route_with_incremented_metric(self, engine):
        feed(engine, P_A, 3)
        assert engine.route_metric(P_A) == 4
        result = engine.table.lookup(Ipv6Address.parse("2001:aa::1"))
        assert result.next_hop == GW1

    def test_better_metric_displaces(self, engine):
        feed(engine, P_A, 5, sender=GW1, interface=0)
        feed(engine, P_A, 2, sender=GW2, interface=1)
        assert engine.route_metric(P_A) == 3
        result = engine.table.lookup(Ipv6Address.parse("2001:aa::1"))
        assert result.next_hop == GW2
        assert result.interface == 1

    def test_worse_metric_from_other_gateway_ignored(self, engine):
        feed(engine, P_A, 2, sender=GW1)
        feed(engine, P_A, 9, sender=GW2, interface=1)
        assert engine.route_metric(P_A) == 3
        assert engine.table.lookup(
            Ipv6Address.parse("2001:aa::1")).next_hop == GW1

    def test_same_gateway_metric_increase_adopted(self, engine):
        feed(engine, P_A, 2, sender=GW1)
        feed(engine, P_A, 7, sender=GW1)
        assert engine.route_metric(P_A) == 8

    def test_infinity_from_gateway_withdraws(self, engine):
        feed(engine, P_A, 2, sender=GW1)
        feed(engine, P_A, METRIC_INFINITY, sender=GW1)
        assert engine.route_metric(P_A) is None or \
            engine.route_metric(P_A) >= METRIC_INFINITY
        assert engine.table.lookup(Ipv6Address.parse("2001:aa::1")) is None

    def test_connected_routes_never_displaced(self, engine):
        connected = Ipv6Prefix.parse("2001:db8:0:1::/64")
        feed(engine, connected, 1, sender=GW2, interface=1)
        assert engine.route_metric(connected) == 1
        assert engine.routes[connected].learned_from is None


class TestTimers:
    def test_route_times_out_then_garbage_collected(self, engine):
        feed(engine, P_A, 2, now=0.0)
        engine.tick(100.0)
        assert engine.route_metric(P_A) == 3
        engine.tick(181.0)  # past the 180 s timeout
        assert engine.table.lookup(Ipv6Address.parse("2001:aa::1")) is None
        assert P_A in engine.routes  # advertised at infinity during GC
        engine.tick(302.0)  # past garbage collection
        assert P_A not in engine.routes

    def test_refresh_resets_timeout(self, engine):
        feed(engine, P_A, 2, now=0.0)
        feed(engine, P_A, 2, now=170.0)
        engine.tick(181.0)
        assert engine.route_metric(P_A) == 3

    def test_periodic_updates_emitted(self, engine):
        first = engine.tick(0.0)
        assert first  # initial full update
        assert engine.tick(10.0) == []
        assert engine.tick(31.0)  # next interval


class TestSplitHorizon:
    def test_learned_route_not_advertised_back(self, engine):
        feed(engine, P_A, 2, interface=0)
        entries0 = engine._export_entries(0)
        entries1 = engine._export_entries(1)
        assert all(e.prefix != P_A for e in entries0)
        assert any(e.prefix == P_A for e in entries1)


class TestRequests:
    def test_full_table_request_answered(self, engine):
        feed(engine, P_A, 2)
        replies = engine.receive(request_full_table().to_bytes(),
                                 sender=GW2, interface=1, now=0.0)
        ((interface, payload),) = replies
        assert interface == 1
        message = RipngMessage.from_bytes(payload)
        prefixes = {e.prefix for e, _ in message.routes()}
        assert P_A in prefixes

    def test_specific_request_answered_with_metric(self, engine):
        feed(engine, P_A, 2)
        ask = RipngMessage(command=1, entries=(
            RouteTableEntry(prefix=P_A, metric=1),
            RouteTableEntry(prefix=P_B, metric=1)))
        ((_, payload),) = engine.receive(ask.to_bytes(), sender=GW2,
                                         interface=1, now=0.0)
        answers = {e.prefix: e.metric
                   for e, _ in RipngMessage.from_bytes(payload).routes()}
        assert answers[P_A] == 3
        assert answers[P_B] == METRIC_INFINITY


class TestTriggeredUpdates:
    def test_new_route_triggers_update(self, engine):
        engine.tick(0.0)  # consume the initial periodic update
        feed(engine, P_A, 2, now=1.0)
        out = engine.tick(2.0)
        assert out  # triggered, well before the 30 s mark
        advertised = set()
        for _iface, payload in out:
            for e, _ in RipngMessage.from_bytes(payload).routes():
                advertised.add(e.prefix)
        assert P_A in advertised
