"""Run the conformance matrix and report per-case verdicts.

Every case gets a *fresh* fixture router (no cross-case state), is
pushed through the link layer when the MAC shim is enabled, and has the
full forwarding contract asserted: egress interface (LPM selection),
hop-limit decrement, transport-checksum preservation, ICMPv6 Time
Exceeded / Destination Unreachable generation (addressed back to the
offending source, checksummed, embedding the invoking packet), and the
my-station / MAC-rewrite behaviour. A final *datapath* case cross-checks
the cycle-accurate TTA simulation against the golden model over the
same fixture routes — the hook where program mutants must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.cases import (
    ConformanceCase,
    DESTINATIONS,
    DEST_CLASSES,
    EXPECT_DEST_UNREACHABLE,
    EXPECT_FORWARD,
    EXPECT_LINK_DROP,
    EXPECT_TIME_EXCEEDED,
    GATEWAY_DEFAULT,
    GATEWAY_LPM_SPECIFIC,
    HOP_LIMITS,
    INGRESS_INTERFACE,
    PACKET_KINDS,
    ROUTER_ADDRESSES,
    SOURCE_HOST,
    build_fixture,
    build_matrix,
    build_packet,
    fixture_routes,
    neighbor_macs,
)
from repro.conformance.mac import (
    ETHERTYPE_IPV6,
    EthernetFrame,
    MacAddress,
    MacShim,
)
from repro.conformance.mutations import MUTANTS, PROGRAM_MUTANTS, apply_mutant
from repro.dse.config import ArchitectureConfiguration
from repro.errors import ConformanceError, ReproError
from repro.ipv6.address import Ipv6Address
from repro.ipv6.checksum import verify_transport_checksum
from repro.ipv6.icmpv6 import (
    Icmpv6Message,
    TYPE_DESTINATION_UNREACHABLE,
    TYPE_TIME_EXCEEDED,
)
from repro.ipv6.packet import Ipv6Datagram
from repro.obs.catalogue import CONFORMANCE_CASES
from repro.programs.runner import RunOptions, run_forwarding

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skip"


@dataclass
class CaseResult:
    case_id: str
    status: str
    detail: str = ""


@dataclass
class ConformanceReport:
    """Pass/fail/skip per case, renderable like every other result type."""

    table_kind: str
    config_description: str
    mac_enabled: bool
    mutant: Optional[str]
    results: List[CaseResult] = field(default_factory=list)

    @property
    def counts(self) -> Dict[str, int]:
        counts = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIP: 0}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    @property
    def passed(self) -> bool:
        return self.counts[STATUS_FAIL] == 0

    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if r.status == STATUS_FAIL]

    def summary(self) -> str:
        counts = self.counts
        lines = [
            f"conformance [{self.table_kind}] "
            f"{'PASS' if self.passed else 'FAIL'}: "
            f"{counts[STATUS_PASS]} passed, {counts[STATUS_FAIL]} failed, "
            f"{counts[STATUS_SKIP]} skipped "
            f"({len(self.results)} cases, MAC shim "
            f"{'on' if self.mac_enabled else 'off'}"
            + (f", mutant {self.mutant!r}" if self.mutant else "") + ")",
            f"datapath: {self.config_description}",
        ]
        for result in self.results:
            marker = {STATUS_PASS: "ok  ", STATUS_FAIL: "FAIL",
                      STATUS_SKIP: "skip"}[result.status]
            line = f"  {marker} {result.case_id}"
            if result.detail and result.status != STATUS_PASS:
                line += f" — {result.detail}"
            lines.append(line)
        return "\n".join(lines)

    def render(self) -> str:
        return self.summary()

    def to_dict(self) -> Dict[str, object]:
        return {
            "table_kind": self.table_kind,
            "config": self.config_description,
            "mac_enabled": self.mac_enabled,
            "mutant": self.mutant,
            "passed": self.passed,
            "counts": self.counts,
            "cases": [{"id": r.case_id, "status": r.status,
                       "detail": r.detail} for r in self.results],
        }


# -- single-case execution ---------------------------------------------------------------


def run_case(case: ConformanceCase, table_kind: str,
             use_mac: bool = True,
             mutant: Optional[str] = None) -> CaseResult:
    """One case against one fresh fixture router."""
    if case.requires_mac and not use_mac:
        return CaseResult(case.case_id, STATUS_SKIP,
                          "needs the MAC shim (disabled)")
    router = build_fixture(table_kind,
                           include_default=case.dest_class != "no-route")
    if mutant is not None and mutant in MUTANTS:
        apply_mutant(router, mutant)
    neighbors = neighbor_macs()
    shim = MacShim(router, neighbors=neighbors) if use_mac else None
    raw = case.build()

    if shim is not None:
        shim.receive_frame(INGRESS_INTERFACE,
                           _ingress_frame(case, shim, raw))
    else:
        router.receive(INGRESS_INTERFACE, raw)

    problems: List[str] = []
    try:
        if shim is not None:
            frames = shim.collect_frames()
            egress: Dict[int, List[bytes]] = {
                iface: [frame.payload for frame in batch]
                for iface, batch in frames.items()}
        else:
            frames = {}
            egress = {}
            for card in router.line_cards:
                if card.transmitted:
                    egress[card.index] = list(card.transmitted)
                    card.transmitted.clear()
    except ConformanceError as exc:
        return CaseResult(case.case_id, STATUS_FAIL,
                          f"egress MAC resolution failed: {exc}")

    if case.expectation == EXPECT_FORWARD:
        problems += _check_forward(case, router, raw, egress, frames,
                                   neighbors if use_mac else None,
                                   shim)
    elif case.expectation == EXPECT_TIME_EXCEEDED:
        problems += _check_icmp_error(case, router, raw, egress,
                                      TYPE_TIME_EXCEEDED,
                                      "hop-limit-exceeded")
    elif case.expectation == EXPECT_DEST_UNREACHABLE:
        problems += _check_icmp_error(case, router, raw, egress,
                                      TYPE_DESTINATION_UNREACHABLE,
                                      "no-route")
    elif case.expectation == EXPECT_LINK_DROP:
        problems += _check_link_drop(case, router, shim, egress)
    else:
        problems.append(f"unknown expectation {case.expectation!r}")

    if problems:
        return CaseResult(case.case_id, STATUS_FAIL, "; ".join(problems))
    return CaseResult(case.case_id, STATUS_PASS)


def _ingress_frame(case: ConformanceCase, shim: MacShim,
                   raw: bytes) -> bytes:
    if case.mac_addressing == "wrong":
        return EthernetFrame(
            destination=MacAddress.parse("02:ff:ff:ff:ff:99"),
            source=MacAddress.parse("02:aa:aa:aa:aa:05"),
            ethertype=ETHERTYPE_IPV6, payload=raw).to_bytes()
    if case.mac_addressing == "bad-ethertype":
        return EthernetFrame(
            destination=shim.port_macs[INGRESS_INTERFACE],
            source=MacAddress.parse("02:aa:aa:aa:aa:05"),
            ethertype=0x0800, payload=raw).to_bytes()
    return shim.frame_for(INGRESS_INTERFACE, raw)


def _check_forward(case: ConformanceCase, router, raw: bytes,
                   egress: Dict[int, List[bytes]],
                   frames: Dict[int, List[EthernetFrame]],
                   neighbors: Optional[Dict[Ipv6Address, MacAddress]],
                   shim: Optional[MacShim]) -> List[str]:
    problems: List[str] = []
    iface = case.expected_interface
    sent = egress.get(iface, [])
    if len(sent) != 1:
        problems.append(
            f"expected 1 datagram out interface {iface}, got "
            f"{ {i: len(batch) for i, batch in egress.items()} or 'none'}")
        return problems
    for other, batch in egress.items():
        if other != iface and batch:
            problems.append(
                f"unexpected egress on interface {other} ({len(batch)})")
    forwarded = sent[0]
    expected = raw[:7] + bytes([raw[7] - 1]) + raw[8:]
    if forwarded != expected:
        if len(forwarded) == len(raw) and forwarded[7] != raw[7] - 1:
            problems.append(
                f"hop limit {raw[7]} -> {forwarded[7]}, expected "
                f"{raw[7] - 1}")
        else:
            problems.append("forwarded bytes differ beyond the hop limit")
    problems += _check_checksum_preserved(forwarded)
    if router.stats.forwarded != 1:
        problems.append(
            f"stats.forwarded == {router.stats.forwarded}, expected 1")
    if neighbors is not None and shim is not None and not problems:
        problems += _check_mac_rewrite(case, frames[iface][0],
                                       neighbors, shim)
    return problems


def _check_checksum_preserved(forwarded: bytes) -> List[str]:
    """The transport checksum must still verify after forwarding (the
    hop limit is outside the pseudo-header, so a correct router changes
    nothing the checksum covers)."""
    try:
        datagram = Ipv6Datagram.from_bytes(forwarded)
        ok = verify_transport_checksum(
            datagram.header.source, datagram.header.destination,
            datagram.upper_layer_protocol, datagram.payload)
    except ReproError as exc:
        return [f"forwarded datagram unparseable: {exc}"]
    if not ok:
        return ["transport checksum no longer verifies after forwarding"]
    return []


def _expected_next_hop(case: ConformanceCase) -> Ipv6Address:
    if case.dest_class == "on-link":
        return case.destination
    if case.dest_class == "lpm":
        return GATEWAY_LPM_SPECIFIC
    return GATEWAY_DEFAULT


def _check_mac_rewrite(case: ConformanceCase, frame: EthernetFrame,
                       neighbors: Dict[Ipv6Address, MacAddress],
                       shim: MacShim) -> List[str]:
    problems: List[str] = []
    expected_source = shim.port_macs[case.expected_interface]
    if frame.source != expected_source:
        problems.append(
            f"egress source MAC {frame.source}, expected port MAC "
            f"{expected_source}")
    expected_destination = neighbors[_expected_next_hop(case)]
    if frame.destination != expected_destination:
        problems.append(
            f"egress destination MAC {frame.destination}, expected "
            f"next hop's {expected_destination}")
    return problems


def _check_icmp_error(case: ConformanceCase, router, raw: bytes,
                      egress: Dict[int, List[bytes]],
                      icmp_type: int, drop_reason: str) -> List[str]:
    problems: List[str] = []
    if router.stats.forwarded:
        problems.append(
            f"{router.stats.forwarded} datagram(s) forwarded; expected "
            f"a drop with {drop_reason}")
    if router.stats.dropped.get(drop_reason, 0) != 1:
        problems.append(
            f"drop counter {drop_reason!r} == "
            f"{router.stats.dropped.get(drop_reason, 0)}, expected 1")
    # the error must leave toward the source: out the ingress LAN
    sent = egress.get(INGRESS_INTERFACE, [])
    others = {i: len(batch) for i, batch in egress.items()
              if i != INGRESS_INTERFACE and batch}
    if others:
        problems.append(f"unexpected egress on interfaces {others}")
    if len(sent) != 1:
        problems.append(
            f"expected 1 ICMPv6 error out interface {INGRESS_INTERFACE}, "
            f"got {len(sent)}")
        return problems
    problems += _check_icmp_message(sent[0], raw, icmp_type)
    return problems


def _check_icmp_message(datagram_bytes: bytes, invoking: bytes,
                        icmp_type: int) -> List[str]:
    problems: List[str] = []
    try:
        datagram = Ipv6Datagram.from_bytes(datagram_bytes)
    except ReproError as exc:
        return [f"ICMPv6 datagram unparseable: {exc}"]
    if datagram.header.destination != SOURCE_HOST:
        problems.append(
            f"ICMPv6 error addressed to {datagram.header.destination}, "
            f"expected the offending source {SOURCE_HOST}")
    if datagram.header.source not in ROUTER_ADDRESSES:
        problems.append(
            f"ICMPv6 error source {datagram.header.source} is not a "
            f"router address")
    try:
        message = Icmpv6Message.from_bytes(
            datagram.payload, datagram.header.source,
            datagram.header.destination, verify=True)
    except ReproError as exc:
        return problems + [f"ICMPv6 message invalid: {exc}"]
    if message.type != icmp_type:
        problems.append(
            f"ICMPv6 type {message.type}, expected {icmp_type}")
    if message.code != 0:
        problems.append(f"ICMPv6 code {message.code}, expected 0")
    embedded = message.body[4:]
    if not embedded or invoking[:len(embedded)] != embedded:
        problems.append(
            "ICMPv6 body does not embed the invoking packet")
    return problems


def _check_link_drop(case: ConformanceCase, router,
                     shim: Optional[MacShim],
                     egress: Dict[int, List[bytes]]) -> List[str]:
    problems: List[str] = []
    reason = "not-my-station" if case.mac_addressing == "wrong" \
        else "bad-ethertype"
    assert shim is not None  # requires_mac cases never reach here without
    if shim.dropped.get(reason, 0) != 1:
        problems.append(
            f"shim drop {reason!r} == {shim.dropped.get(reason, 0)}, "
            f"expected 1")
    if router.stats.received:
        problems.append(
            f"datapath received {router.stats.received} datagram(s); the "
            f"frame must die at the link layer")
    if any(egress.values()):
        problems.append("unexpected egress for a link-dropped frame")
    return problems


# -- datapath cross-check ----------------------------------------------------------------


def datapath_packets() -> List[Tuple[int, bytes]]:
    """The routable slice of the matrix as a TTA workload (no-route is
    omitted: the datapath fixture keeps its default route)."""
    packets: List[Tuple[int, bytes]] = []
    for kind in PACKET_KINDS:
        for dest_class in DEST_CLASSES:
            if dest_class == "no-route":
                continue
            for hop_limit in HOP_LIMITS:
                destination, _ = DESTINATIONS[dest_class]
                packets.append((INGRESS_INTERFACE,
                                build_packet(kind, destination, hop_limit)))
    return packets


def run_datapath_check(table_kind: str,
                       config: Optional[ArchitectureConfiguration] = None,
                       mutant: Optional[str] = None) -> CaseResult:
    """Simulate the matrix workload on the TTA and diff it against the
    golden forwarding semantics (hop-limit cases must be dropped by the
    program, with no wrapped hop limits)."""
    case_id = f"datapath/{table_kind}"
    if config is None:
        config = ArchitectureConfiguration(table_kind=table_kind)
    elif config.table_kind != table_kind:
        return CaseResult(case_id, STATUS_FAIL,
                          f"config table kind {config.table_kind!r} does "
                          f"not match suite table kind {table_kind!r}")
    program_factory = PROGRAM_MUTANTS.get(mutant) if mutant else None
    try:
        result = run_forwarding(config, fixture_routes(), datapath_packets(),
                                options=RunOptions(
                                    program_factory=program_factory))
    except ReproError as exc:
        return CaseResult(case_id, STATUS_FAIL,
                          f"simulation failed: {exc}")
    if result.correct:
        return CaseResult(case_id, STATUS_PASS)
    return CaseResult(case_id, STATUS_FAIL,
                      "TTA diverged from golden model: "
                      + "; ".join(result.mismatches))


# -- suite entry point -------------------------------------------------------------------


def run_conformance(table_kind: str = "sequential",
                    config: Optional[ArchitectureConfiguration] = None,
                    mac: bool = True,
                    mutant: Optional[str] = None,
                    datapath: bool = True,
                    cases: Optional[Sequence[ConformanceCase]] = None,
                    ) -> ConformanceReport:
    """Run the full matrix (plus the datapath cross-check) and report.

    *mutant* may name a functional mutant (applied to every fixture
    router) or a program mutant (applied to the datapath check); either
    way the suite must fail with case-level diagnosis — that failure is
    itself asserted by the test suite.
    """
    if mutant is not None and mutant not in MUTANTS \
            and mutant not in PROGRAM_MUTANTS:
        raise ConformanceError(
            f"unknown mutant {mutant!r}; expected one of "
            f"{', '.join(sorted(list(MUTANTS) + list(PROGRAM_MUTANTS)))}")
    if config is None:
        config = ArchitectureConfiguration(table_kind=table_kind)
    report = ConformanceReport(
        table_kind=table_kind,
        config_description=config.describe(),
        mac_enabled=mac,
        mutant=mutant)
    for case in (cases if cases is not None else build_matrix()):
        report.results.append(run_case(case, table_kind, use_mac=mac,
                                       mutant=mutant))
    if datapath:
        report.results.append(
            run_datapath_check(table_kind, config=config, mutant=mutant))
    for status, count in report.counts.items():
        if count:
            CONFORMANCE_CASES.inc(count, table=table_kind, status=status)
    return report
