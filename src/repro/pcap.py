"""Dependency-free classic pcap import/export plus capture and replay.

Three pieces, all stdlib-only:

* :func:`write_pcap` / :func:`read_pcap` — the classic (not pcapng)
  libpcap container, little- or big-endian, version 2.4, default link
  type ``LINKTYPE_RAW`` (101: bare IP packets, which is exactly what the
  repro line cards carry).
* :class:`LinkTap` / :func:`attach_taps` — a duck-typed link fault model
  that records every frame (with the network clock) and otherwise
  delegates, so any :class:`~repro.router.network.Network` run can be
  captured without changing its behaviour.
* :func:`replay` — push a capture through a fresh conformance fixture
  router, timing each packet, and publish latency percentiles to the
  obs registry — captures become replayable conformance workloads.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PcapError

PCAP_MAGIC = 0xA1B2C3D4
PCAP_MAGIC_SWAPPED = 0xD4C3B2A1
PCAP_VERSION = (2, 4)
#: raw IP packets, no link-layer header — what the line cards carry
LINKTYPE_RAW = 101
#: standard Ethernet, for captures taken under the conformance MAC shim
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass(frozen=True)
class CapturedPacket:
    """One captured packet: raw bytes and a capture timestamp (seconds)."""

    data: bytes
    timestamp: float = 0.0


def to_pcap_bytes(packets: Iterable[CapturedPacket],
                  linktype: int = LINKTYPE_RAW) -> bytes:
    """Serialise *packets* as a classic little-endian pcap stream."""
    parts = [_GLOBAL_HEADER.pack(PCAP_MAGIC, PCAP_VERSION[0],
                                 PCAP_VERSION[1], 0, 0, 0xFFFF, linktype)]
    for packet in packets:
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # round-up spill into the next second
            seconds, micros = seconds + 1, micros - 1_000_000
        parts.append(_RECORD_HEADER.pack(seconds, micros,
                                         len(packet.data),
                                         len(packet.data)))
        parts.append(packet.data)
    return b"".join(parts)


def from_pcap_bytes(data: bytes) -> Tuple[List[CapturedPacket], int]:
    """Parse a classic pcap stream; returns (packets, linktype).

    Both byte orders are accepted; nanosecond-magic and pcapng streams
    are rejected with a :class:`PcapError` naming the problem.
    """
    if len(data) < _GLOBAL_HEADER.size:
        raise PcapError(f"truncated pcap: {len(data)} bytes, need at "
                        f"least {_GLOBAL_HEADER.size}")
    magic = struct.unpack("<I", data[:4])[0]
    if magic == PCAP_MAGIC:
        order = "<"
    elif magic == PCAP_MAGIC_SWAPPED:
        order = ">"
    elif magic == 0x0A0D0D0A:
        raise PcapError("pcapng input; only classic pcap is supported")
    else:
        raise PcapError(f"bad pcap magic 0x{magic:08x}")
    header = struct.Struct(order + "IHHiIII")
    record = struct.Struct(order + "IIII")
    (_, major, minor, _zone, _sigfigs, _snaplen,
     linktype) = header.unpack_from(data)
    if (major, minor) != PCAP_VERSION:
        raise PcapError(f"unsupported pcap version {major}.{minor}")
    packets: List[CapturedPacket] = []
    offset = header.size
    while offset < len(data):
        if offset + record.size > len(data):
            raise PcapError(f"truncated record header at byte {offset}")
        seconds, micros, incl_len, orig_len = record.unpack_from(data,
                                                                 offset)
        offset += record.size
        if incl_len > orig_len:
            raise PcapError(
                f"corrupt record at byte {offset}: captured length "
                f"{incl_len} exceeds original {orig_len}")
        if offset + incl_len > len(data):
            raise PcapError(f"truncated packet data at byte {offset}")
        packets.append(CapturedPacket(
            data=bytes(data[offset:offset + incl_len]),
            timestamp=seconds + micros / 1_000_000))
        offset += incl_len
    return packets, linktype


def write_pcap(path: str, packets: Iterable[CapturedPacket],
               linktype: int = LINKTYPE_RAW) -> int:
    """Write *packets* to *path* atomically; returns the packet count.

    Same crash contract as every ``--output`` document: a crash mid-write
    leaves either the previous capture or the complete new one, never a
    truncated file a later ``read_pcap`` would choke on.
    """
    from repro.dse.sweep import write_atomic_bytes

    packets = list(packets)
    write_atomic_bytes(path, to_pcap_bytes(packets, linktype=linktype))
    return len(packets)


def read_pcap(path: str) -> List[CapturedPacket]:
    with open(path, "rb") as handle:
        data = handle.read()
    packets, _linktype = from_pcap_bytes(data)
    return packets


# -- capture ---------------------------------------------------------------------------


class LinkTap:
    """A pass-through link fault model that records every frame.

    Stacks on top of any existing fault model (it captures the frame
    *before* the inner model drops/corrupts/delays it, like a wire tap
    on the transmit side) and satisfies the same duck type, so
    :meth:`Network.attach_fault_model` accepts it directly.
    """

    def __init__(self, inner: Optional[Any] = None,
                 clock: Optional[Any] = None):
        self.inner = inner
        self._clock = clock or (lambda: 0.0)
        self.captured: List[CapturedPacket] = []

    def transmit(self, raw: bytes) -> List[Tuple[int, bytes]]:
        self.captured.append(CapturedPacket(data=bytes(raw),
                                            timestamp=float(self._clock())))
        if self.inner is not None:
            return list(self.inner.transmit(raw))
        return [(0, raw)]

    @property
    def stats(self) -> Any:
        """The inner model's statistics, so network metrics still see
        drop/corrupt/delay counts through the tap."""
        return getattr(self.inner, "stats", None)

    def write(self, path: str) -> int:
        return write_pcap(path, self.captured)


def attach_taps(network: Any,
                endpoints: Optional[Sequence[Tuple[str, int]]] = None,
                ) -> Dict[str, LinkTap]:
    """Wrap every link (or just *endpoints*) of *network* in a
    :class:`LinkTap` stamped with the network clock; returns taps keyed
    by ``"router:interface"`` of the tapped endpoint."""
    taps: Dict[str, LinkTap] = {}
    clock = lambda: network.now  # noqa: E731 — bound late, reads live clock
    if endpoints is None:
        endpoints = [link.a for link in network.links]
    by_endpoint = {}
    for link in network.links:
        by_endpoint[link.a] = link
        by_endpoint[link.b] = link
    for endpoint in endpoints:
        endpoint = tuple(endpoint)
        link = by_endpoint.get(endpoint)
        if link is None:
            raise PcapError(f"{endpoint} is not a linked interface")
        tap = LinkTap(inner=link.fault_model, clock=clock)
        network.attach_fault_model(endpoint, tap)
        taps[f"{endpoint[0]}:{endpoint[1]}"] = tap
    return taps


def merged_capture(taps: Dict[str, LinkTap]) -> List[CapturedPacket]:
    """All tapped frames, ordered by capture time (stable)."""
    merged = [packet for tap in taps.values() for packet in tap.captured]
    merged.sort(key=lambda packet: packet.timestamp)
    return merged


# -- replay ----------------------------------------------------------------------------


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (0 for an empty set)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class ReplayReport:
    """Outcome of replaying a capture through a conformance fixture."""

    table_kind: str
    packets: int
    forwarded: int
    delivered_local: int
    dropped: Dict[str, int] = field(default_factory=dict)
    #: per-packet processing latency, seconds (golden-model wall clock)
    latencies: List[float] = field(default_factory=list)

    @property
    def latency_percentiles(self) -> Dict[str, float]:
        return {"p50": percentile(self.latencies, 0.50),
                "p90": percentile(self.latencies, 0.90),
                "p99": percentile(self.latencies, 0.99),
                "max": max(self.latencies) if self.latencies else 0.0}

    def summary(self) -> str:
        pct = self.latency_percentiles
        dropped = sum(self.dropped.values())
        return (f"replayed {self.packets} packets through the "
                f"{self.table_kind} fixture: {self.forwarded} forwarded, "
                f"{self.delivered_local} delivered locally, "
                f"{dropped} dropped; latency p50 {pct['p50'] * 1e6:.1f}us "
                f"p99 {pct['p99'] * 1e6:.1f}us")

    def render(self) -> str:
        return self.summary()

    def to_dict(self) -> Dict[str, object]:
        return {"table_kind": self.table_kind,
                "packets": self.packets,
                "forwarded": self.forwarded,
                "delivered_local": self.delivered_local,
                "dropped": dict(self.dropped),
                "latency_percentiles": self.latency_percentiles}


def replay(packets: Sequence[CapturedPacket],
           table_kind: str = "sequential",
           interface: int = 0) -> ReplayReport:
    """Replay a capture through a fresh conformance fixture router.

    Per-packet golden-model latency is measured with a monotonic clock
    and published to the obs registry as a histogram plus percentile
    gauges, so ``--output`` JSON metric sections carry the numbers.
    """
    from repro.conformance.cases import build_fixture
    from repro.obs import get_registry

    router = build_fixture(table_kind)
    latencies: List[float] = []
    for packet in packets:
        started = time.perf_counter()
        router.receive(interface, packet.data)
        latencies.append(time.perf_counter() - started)
    report = ReplayReport(
        table_kind=table_kind,
        packets=len(packets),
        forwarded=router.stats.forwarded,
        delivered_local=router.stats.delivered_local,
        dropped=dict(router.stats.dropped),
        latencies=latencies)

    registry = get_registry()
    if registry.enabled and latencies:
        histogram = registry.histogram(
            "replay_latency_seconds",
            "per-packet golden-model forwarding latency", ("table",))
        for sample in latencies:
            histogram.observe(sample, table=table_kind)
        gauge = registry.gauge(
            "replay_latency_quantile_seconds",
            "replay latency percentiles", ("table", "quantile"))
        for name, value in report.latency_percentiles.items():
            gauge.set(value, table=table_kind, quantile=name)
    return report


def replay_file(path: str, table_kind: str = "sequential",
                interface: int = 0) -> ReplayReport:
    return replay(read_pcap(path), table_kind=table_kind,
                  interface=interface)
