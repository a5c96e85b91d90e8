"""Adversarial RIPng campaigns: hostile control-plane input, asserted safe.

The chaos layer (:mod:`repro.faults.scenario`) stresses the *transport*
under the control plane; this module attacks the control plane itself.
An :class:`AdversarialRipngAdvertiser` forges the datagrams a hostile
neighbour on a shared link could send — malformed RTEs, martian-prefix
poison, spoofed global next hops, route-withdrawal storms, and oversized
update bursts — and a :class:`ControlPlaneAssault` drives them into a
victim router between two watchdog-verified convergence phases.

The contract asserted is graceful degradation, the same one the
conformance suite checks on the data plane:

* no hostile datagram may raise out of the simulation loop;
* no hostile prefix may be installed in any routing table past
  validation;
* every refusal must be visible in :class:`RouterStatistics` (and the
  ``ripng_rejected_total`` observability counter);
* the network must re-converge once the attack stops.

All randomness derives from one root seed via per-attack-kind
:func:`~repro.faults.seeds.derive_seed` streams, so campaigns replay
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import FaultInjectionError
from repro.faults.scenario import advertised_prefixes
from repro.faults.seeds import derive_seed, make_rng
from repro.faults.watchdog import SimulationWatchdog, WatchdogDiagnosis
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.header import PROTO_UDP
from repro.ipv6.packet import Ipv6Datagram
from repro.ipv6.ripng import (
    COMMAND_RESPONSE,
    MAX_RTES_PER_MESSAGE,
    METRIC_INFINITY,
    NextHopEntry,
    RIPNG_MULTICAST_GROUP,
    RIPNG_PORT,
    RipngMessage,
    RouteTableEntry,
    response,
)
from repro.ipv6.udp import UdpDatagram
from repro.router.network import ConvergenceReport, Network
from repro.router.router import Ipv6Router

#: every attack kind the advertiser can forge, in campaign order
ATTACK_KINDS: Tuple[str, ...] = (
    "malformed", "martian", "spoofed-next-hop", "withdrawal", "oversized")

#: prefixes no honest neighbour would advertise; all must be refused
_MARTIAN_POOL: Tuple[str, ...] = (
    "ff02::/16", "ff05:1234::/32", "fe80::/64", "fe80:0:0:7::/64",
    "::1/128", "::/16",
)


def control_plane_drops(router: Ipv6Router) -> Dict[str, int]:
    """One merged view of a router's control-plane refusals.

    Whole-datagram drops (``bad-ripng``, ``ripng-*``) come from
    ``stats.dropped``; RTE-level refusals come from
    ``stats.control_rejected`` and are namespaced ``rte-*`` so chaos,
    assault, and conformance reports all name the same events the same
    way.
    """
    drops: Dict[str, int] = {}
    for reason, count in router.stats.dropped.items():
        if reason == "bad-ripng" or reason.startswith("ripng-"):
            drops[reason] = drops.get(reason, 0) + count
    for reason, count in router.stats.control_rejected.items():
        key = f"rte-{reason}"
        drops[key] = drops.get(key, 0) + count
    return drops


class AdversarialRipngAdvertiser:
    """Forges hostile RIPng datagrams from a fake link-local neighbour."""

    def __init__(self, seed: int = 2080,
                 source: Optional[Ipv6Address] = None,
                 victim_prefixes: Sequence[Ipv6Prefix] = ()):
        self.source = source if source is not None \
            else Ipv6Address.parse("fe80::bad:1")
        self.victim_prefixes = list(victim_prefixes)
        self._rngs = {kind: make_rng(derive_seed(seed, "control", kind))
                      for kind in ATTACK_KINDS}
        #: every prefix advertised through an attack that validation must
        #: refuse — the assault asserts none of these are ever installed
        self.hostile_prefixes: Set[Ipv6Prefix] = set()
        self.sent: Dict[str, int] = {kind: 0 for kind in ATTACK_KINDS}

    # -- datagram factory ----------------------------------------------------------------

    def datagrams(self, kind: str, count: int) -> List[bytes]:
        """*count* hostile datagrams of one attack kind, seeded per kind."""
        if kind not in ATTACK_KINDS:
            raise FaultInjectionError(
                f"unknown attack kind {kind!r}; expected one of "
                f"{', '.join(ATTACK_KINDS)}")
        builder = getattr(self, "_" + kind.replace("-", "_") + "_payload")
        rng = self._rngs[kind]
        frames = [self._wrap(builder(rng)) for _ in range(count)]
        self.sent[kind] += count
        return frames

    def _wrap(self, payload: bytes) -> bytes:
        udp = UdpDatagram(source_port=RIPNG_PORT,
                          destination_port=RIPNG_PORT, payload=payload)
        datagram = Ipv6Datagram.build(
            source=self.source, destination=RIPNG_MULTICAST_GROUP,
            next_header=PROTO_UDP,
            payload=udp.to_bytes(self.source, RIPNG_MULTICAST_GROUP),
            hop_limit=255)
        return datagram.to_bytes()

    # -- payload builders (one per attack kind) ------------------------------------------

    def _malformed_payload(self, rng) -> bytes:
        """Byte garbage the codec must refuse with its documented error."""
        variant = rng.randrange(6)
        if variant == 0:  # truncated header
            return bytes(rng.randrange(256)
                         for _ in range(rng.randrange(4)))
        if variant == 1:  # ragged body: never a whole number of RTEs
            length = 4 + 20 * rng.randrange(4) + rng.randrange(1, 20)
            return bytes(rng.randrange(256) for _ in range(length))
        base = response([self._hostile_rte(rng)]).to_bytes()
        data = bytearray(base)
        if variant == 2:  # unknown command
            data[0] = rng.choice((0, 3, 4, 99, 255))
        elif variant == 3:  # unsupported version
            data[1] = rng.choice((0, 2, 255))
        elif variant == 4:  # metric outside 1..16 (and not the 0xFF marker)
            data[-1] = rng.choice((0, 17, 42, 200))
        else:  # next-hop RTE with non-zero must-be-zero fields
            data[-1] = 0xFF
            data[-4] = 1 + rng.randrange(255)
        return bytes(data)

    def _martian_payload(self, rng) -> bytes:
        """RTEs for prefixes that must never be routed (poison)."""
        entries = []
        for _ in range(rng.randrange(1, 5)):
            prefix = Ipv6Prefix.parse(rng.choice(_MARTIAN_POOL))
            self.hostile_prefixes.add(prefix)
            entries.append(RouteTableEntry(prefix=prefix,
                                           metric=rng.randrange(1, 16)))
        return response(entries).to_bytes()

    def _spoofed_next_hop_payload(self, rng) -> bytes:
        """Plausible prefixes behind a global (non-link-local) next hop —
        a redirection attempt; the receiver must refuse every RTE."""
        spoofed = Ipv6Address.parse(
            f"2001:db8:666::{rng.randrange(1, 0xFFFF):x}")
        entries: List[object] = [NextHopEntry(next_hop=spoofed)]
        for _ in range(rng.randrange(1, 4)):
            prefix = Ipv6Prefix.parse(
                f"2001:db8:bad:{rng.randrange(0x10000):x}::/64")
            self.hostile_prefixes.add(prefix)
            entries.append(RouteTableEntry(prefix=prefix,
                                           metric=rng.randrange(1, 4)))
        return RipngMessage(command=COMMAND_RESPONSE,
                            entries=tuple(entries)).to_bytes()

    def _withdrawal_payload(self, rng) -> bytes:
        """Metric-infinity RTEs for the victim's real prefixes: a spoofed
        withdrawal. RFC 2080 only honours infinity from the route's own
        gateway, so these must be ignored and every real route survive."""
        if not self.victim_prefixes:
            # no topology knowledge: fall back to martian poison
            return self._martian_payload(rng)
        count = min(len(self.victim_prefixes), rng.randrange(1, 6))
        chosen = rng.sample(self.victim_prefixes, count)
        return response([RouteTableEntry(prefix=p, metric=METRIC_INFINITY)
                         for p in chosen]).to_bytes()

    def _oversized_payload(self, rng) -> bytes:
        """More RTEs than fit the minimum IPv6 MTU: a resource-exhaustion
        burst the receiver must refuse wholesale before iterating it."""
        entries = []
        for i in range(MAX_RTES_PER_MESSAGE + rng.randrange(1, 40)):
            prefix = Ipv6Prefix.parse(
                f"2001:db8:f100:{(i + rng.randrange(0x1000)) & 0xFFFF:x}::/64")
            self.hostile_prefixes.add(prefix)
            entries.append(RouteTableEntry(prefix=prefix, metric=1))
        return response(entries).to_bytes()

    def _hostile_rte(self, rng) -> RouteTableEntry:
        prefix = Ipv6Prefix.parse(
            f"2001:db8:bad:{rng.randrange(0x10000):x}::/64")
        self.hostile_prefixes.add(prefix)
        return RouteTableEntry(prefix=prefix, metric=rng.randrange(1, 16))


@dataclass
class AssaultReport:
    """Outcome of one control-plane assault, with pass/fail verdicts."""

    baseline: ConvergenceReport
    recovery: ConvergenceReport
    attack_rounds: int
    injected: Dict[str, int]
    injection_refused: int
    exceptions: List[str]
    drops: Dict[str, int]
    poisoned_installed: List[str]
    prefixes_checked: int
    prefixes_lost: List[str]
    diagnosis: Optional[WatchdogDiagnosis] = None

    @property
    def reconverged(self) -> bool:
        return self.recovery.converged

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    @property
    def passed(self) -> bool:
        """The graceful-degradation contract, as one verdict."""
        return (not self.exceptions
                and not self.poisoned_installed
                and not self.prefixes_lost
                and self.reconverged
                and self.total_drops > 0)

    def summary(self) -> str:
        injected = ", ".join(f"{kind}={count}" for kind, count
                             in sorted(self.injected.items()) if count)
        drops = ", ".join(f"{reason}={count}" for reason, count
                          in sorted(self.drops.items()))
        lines = [
            f"assault: {'PASS' if self.passed else 'FAIL'} "
            f"({self.total_injected} hostile datagrams over "
            f"{self.attack_rounds} rounds)",
            f"injected: {injected or 'none'}",
            f"refused at ingress queue: {self.injection_refused}",
            f"control-plane drops: {drops or 'NONE (contract violation)'}",
            f"uncaught exceptions: {len(self.exceptions)}",
            f"poisoned routes installed: "
            f"{len(self.poisoned_installed)}",
            f"legitimate prefixes intact: "
            f"{self.prefixes_checked - len(self.prefixes_lost)}"
            f"/{self.prefixes_checked}",
            f"re-converged after attack: {self.reconverged} "
            f"(baseline {self.baseline.rounds} rounds, recovery "
            f"{self.recovery.rounds} rounds)",
        ]
        if self.exceptions:
            lines.append("exceptions: " + "; ".join(self.exceptions[:5]))
        if self.poisoned_installed:
            lines.append("poisoned: " + ", ".join(self.poisoned_installed))
        if self.prefixes_lost:
            lines.append("lost: " + ", ".join(self.prefixes_lost))
        if self.diagnosis is not None and not self.diagnosis.quiet:
            lines.append(self.diagnosis.summary())
        return "\n".join(lines)

    def render(self) -> str:
        return self.summary()

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "attack_rounds": self.attack_rounds,
            "injected": dict(self.injected),
            "total_injected": self.total_injected,
            "injection_refused": self.injection_refused,
            "exceptions": list(self.exceptions),
            "drops": dict(self.drops),
            "total_drops": self.total_drops,
            "poisoned_installed": list(self.poisoned_installed),
            "prefixes_checked": self.prefixes_checked,
            "prefixes_lost": list(self.prefixes_lost),
            "reconverged": self.reconverged,
            "baseline_rounds": self.baseline.rounds,
            "recovery_rounds": self.recovery.rounds,
        }


class ControlPlaneAssault:
    """Drive hostile RIPng at a victim between two convergence phases."""

    def __init__(self, network: Network, victim: Optional[str] = None,
                 interface: int = 0, seed: int = 2080,
                 attack_rounds: int = 30, burst_per_round: int = 2,
                 kinds: Sequence[str] = ATTACK_KINDS,
                 max_rounds: int = 600, quiet_rounds: int = 20):
        if attack_rounds < 1:
            raise FaultInjectionError(
                f"attack_rounds must be positive, got {attack_rounds}")
        unknown = [k for k in kinds if k not in ATTACK_KINDS]
        if unknown:
            raise FaultInjectionError(
                f"unknown attack kinds: {', '.join(unknown)}")
        self.network = network
        self.victim = victim if victim is not None \
            else next(iter(network.routers))
        if self.victim not in network.routers:
            raise FaultInjectionError(
                f"victim {self.victim!r} is not in the network")
        self.interface = interface
        self.seed = seed
        self.attack_rounds = attack_rounds
        self.burst_per_round = burst_per_round
        self.kinds = tuple(kinds)
        self.max_rounds = max_rounds
        self.quiet_rounds = quiet_rounds
        self._ran = False

    def run(self) -> AssaultReport:
        if self._ran:
            raise FaultInjectionError(
                "a ControlPlaneAssault is one-shot; build a new one")
        self._ran = True
        network = self.network
        victim = network.routers[self.victim]

        watchdog = SimulationWatchdog(network)
        baseline = network.run_until_converged(
            max_rounds=self.max_rounds, quiet_rounds=self.quiet_rounds,
            watchdog=watchdog)

        prefixes = advertised_prefixes(network)
        advertiser = AdversarialRipngAdvertiser(
            seed=self.seed, victim_prefixes=prefixes)
        drops_before = {name: control_plane_drops(router)
                        for name, router in network.routers.items()}

        exceptions: List[str] = []
        refused = 0
        card = victim.line_cards[self.interface]
        for round_index in range(self.attack_rounds):
            kind = self.kinds[round_index % len(self.kinds)]
            for frame in advertiser.datagrams(kind, self.burst_per_round):
                if not card.deliver(frame):
                    refused += 1
            try:
                network.step()
            except Exception as exc:  # noqa: BLE001 -- the contract under test
                exceptions.append(f"{type(exc).__name__}: {exc}")
            watchdog.observe()

        recovery = network.run_until_converged(
            max_rounds=self.max_rounds, quiet_rounds=self.quiet_rounds,
            watchdog=watchdog)

        poisoned = sorted(
            str(prefix) for prefix in advertiser.hostile_prefixes
            if any(router.table.get(prefix) is not None
                   for router in network.routers.values()))
        lost = [str(prefix) for prefix in prefixes
                if not network.tables_agree_on(prefix)]
        drops: Dict[str, int] = {}
        for name, router in network.routers.items():
            before = drops_before.get(name, {})
            for reason, count in control_plane_drops(router).items():
                delta = count - before.get(reason, 0)
                if delta > 0:
                    drops[reason] = drops.get(reason, 0) + delta
        diagnosis = recovery.diagnosis
        if not recovery.converged and diagnosis is None:
            diagnosis = watchdog.diagnose()
        return AssaultReport(
            baseline=baseline, recovery=recovery,
            attack_rounds=self.attack_rounds,
            injected=dict(advertiser.sent),
            injection_refused=refused,
            exceptions=exceptions,
            drops=drops,
            poisoned_installed=poisoned,
            prefixes_checked=len(prefixes),
            prefixes_lost=lost,
            diagnosis=diagnosis)
