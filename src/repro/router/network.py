"""Multi-router network simulation for RIPng convergence studies.

Routers are joined by point-to-point links between named interfaces. The
simulation advances in fixed time steps: each step applies any scripted
link flaps, moves every datagram a router transmitted onto the peer's
input queue (through the link's fault model, if one is attached), lets
every router drain its inputs, and advances the RIPng timers.
Convergence is reached when no router changes its table or emits a
triggered update for a full interval.

Fault injection is strictly opt-in: a link without a fault model uses
the original zero-copy same-step delivery path, so an unfaulted network
behaves bit-for-bit as it always did. The fault/flap objects themselves
live in :mod:`repro.faults` and are only duck-typed here (a fault model
needs ``transmit(raw) -> [(delay_steps, frame), ...]``; a flap schedule
needs ``due(now) -> [events with .endpoint/.up]``) to keep the router
core free of any dependency on the chaos layer.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.ipv6.address import Ipv6Address, Ipv6Prefix
from repro.ipv6.ripng import UPDATE_INTERVAL_S
from repro.obs import get_registry
from repro.obs.catalogue import NET_CONVERGENCE_ROUNDS, NET_CONVERGENCE_RUNS, \
    NET_CONVERGENCE_SECONDS, NET_FRAMES_DELIVERED, NET_FRAMES_IN_FLIGHT, \
    NET_LINK_DROPPED, NET_LINK_FAULTS, NET_LINK_FRAMES, NET_ROUNDS
from repro.router.router import Ipv6Router

Endpoint = Tuple[str, int]  # (router name, interface index)


@dataclass
class Link:
    a: Endpoint
    b: Endpoint
    up: bool = True
    #: optional repro.faults.FaultModel (duck-typed; see module docstring)
    fault_model: Optional[Any] = None

    def peer(self, endpoint: Endpoint) -> Endpoint:
        if endpoint == self.a:
            return self.b
        if endpoint == self.b:
            return self.a
        raise ReproError(f"{endpoint} is not on this link")


@dataclass
class ConvergenceReport:
    converged: bool
    rounds: int
    messages_delivered: int
    time_elapsed: float
    #: set on non-convergence when a watchdog observed the run
    diagnosis: Optional[Any] = None


#: the prefix a RIPng run reports every router's metric to (r0's first
#: link network, so the metrics read as hop counts along the topology)
PROBE_PREFIX = "2001:db8:0:1::/64"


@dataclass
class RipngRun:
    """One RIPng convergence run over a topology, with its capture."""

    topology: str
    network: "Network"
    report: ConvergenceReport
    #: frames written to *capture_path*, when the run was captured
    captured: Optional[int] = None
    capture_path: Optional[str] = None

    def render(self) -> str:
        report = self.report
        lines = []
        if self.captured is not None:
            lines.append(f"captured {self.captured} frames to "
                         f"{self.capture_path}")
        lines.append(f"{self.topology} of {len(self.network.routers)}: "
                     f"converged={report.converged} in {report.rounds} "
                     f"rounds, {report.messages_delivered} datagrams "
                     f"exchanged")
        probe = Ipv6Prefix.parse(PROBE_PREFIX)
        for name in self.network.routers:
            lines.append(f"  {name}: metric to {probe} = "
                         f"{self.network.route_metric(name, probe)}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "routers": len(self.network.routers),
            "converged": self.report.converged,
            "rounds": self.report.rounds,
            "messages_delivered": self.report.messages_delivered,
            "time_elapsed": self.report.time_elapsed,
        }


class Network:
    """A topology of :class:`Ipv6Router` instances joined by links."""

    def __init__(self, step_seconds: float = 1.0):
        self.routers: Dict[str, Ipv6Router] = {}
        self.links: List[Link] = []
        self._by_endpoint: Dict[Endpoint, Link] = {}
        self.step_seconds = step_seconds
        self.now = 0.0
        self.messages_delivered = 0
        self.frames_lost_link_down = 0
        self.link_flaps_applied = 0
        self.flap_schedule: Optional[Any] = None
        # frames delayed by a fault model: (deliver_at, seq, endpoint, raw)
        self._in_flight: List[Tuple[float, int, Endpoint, bytes]] = []
        self._flight_seq = 0
        # last-published fault-model statistics per link, so step() can
        # publish per-link injected/dropped/corrupted deltas as counters
        self._fault_stats_seen: Dict[int, Dict[str, int]] = {}

    # -- construction -----------------------------------------------------------------

    def add_router(self, router: Ipv6Router) -> Ipv6Router:
        if router.name in self.routers:
            raise ReproError(f"duplicate router name {router.name!r}")
        self.routers[router.name] = router
        return router

    def connect(self, a: Endpoint, b: Endpoint) -> Link:
        for endpoint in (a, b):
            name, interface = endpoint
            if name not in self.routers:
                raise ReproError(f"unknown router {name!r}")
            router = self.routers[name]
            if not 0 <= interface < len(router.line_cards):
                raise ReproError(f"{name} has no interface {interface}")
            if endpoint in self._by_endpoint:
                raise ReproError(f"{endpoint} already linked")
        link = Link(a=a, b=b)
        self.links.append(link)
        self._by_endpoint[a] = link
        self._by_endpoint[b] = link
        return link

    def set_link_state(self, a: Endpoint, up: bool) -> None:
        link = self._by_endpoint.get(a)
        if link is None:
            raise ReproError(f"{a} is not linked")
        link.up = up

    def attach_fault_model(self, a: Endpoint, model: Optional[Any]) -> Link:
        """Attach (or clear, with None) a fault model on *a*'s link."""
        link = self._by_endpoint.get(a)
        if link is None:
            raise ReproError(f"{a} is not linked")
        link.fault_model = model
        return link

    def set_flap_schedule(self, schedule: Optional[Any]) -> None:
        """Install a scripted link flap schedule (applied in :meth:`step`).

        Endpoints are validated now so a typo fails before the run, not
        hundreds of simulated seconds into it.
        """
        if schedule is not None:
            for endpoint in schedule.endpoints():
                if endpoint not in self._by_endpoint:
                    raise ReproError(
                        f"flap schedule touches {endpoint}, which is not a "
                        f"linked interface of this network")
        self.flap_schedule = schedule

    # -- simulation -------------------------------------------------------------------

    def step(self) -> int:
        """One round: apply flaps, deliver transmissions, process inputs,
        tick timers."""
        if self.flap_schedule is not None:
            for event in self.flap_schedule.due(self.now):
                self.set_link_state(event.endpoint, event.up)
                self.link_flaps_applied += 1
        delivered = self._deliver_transmissions()
        for router in self.routers.values():
            router.poll_inputs(now=self.now)
        for router in self.routers.values():
            router.tick(self.now)
        self.now += self.step_seconds
        self.messages_delivered += delivered
        NET_ROUNDS.inc()
        NET_FRAMES_DELIVERED.inc(delivered)
        NET_FRAMES_IN_FLIGHT.set(len(self._in_flight))
        if get_registry().enabled:
            self._publish_link_metrics()
        return delivered

    @staticmethod
    def _link_label(link: Link) -> str:
        return (f"{link.a[0]}:{link.a[1]}<->{link.b[0]}:{link.b[1]}")

    def _publish_link_metrics(self) -> None:
        """Publish per-link fault-model statistics as counter deltas."""
        for link in self.links:
            model = link.fault_model
            if model is None or not hasattr(model, "stats"):
                continue
            label = self._link_label(link)
            seen = self._fault_stats_seen.setdefault(id(link), {})
            stats = model.stats
            for name in ("injected", "dropped", "corrupted", "duplicated",
                         "reordered", "delayed"):
                value = getattr(stats, name, 0)
                delta = value - seen.get(name, 0)
                if delta <= 0:
                    continue
                seen[name] = value
                if name == "injected":
                    NET_LINK_FRAMES.inc(delta, link=label)
                else:
                    NET_LINK_FAULTS.inc(delta, link=label, fault=name)

    def _deliver_transmissions(self) -> int:
        delivered = self._release_in_flight()
        for name, router in self.routers.items():
            for card in router.line_cards:
                if not card.transmitted:
                    continue
                outgoing = list(card.transmitted)
                card.transmitted.clear()
                link = self._by_endpoint.get((name, card.index))
                if link is None:
                    continue  # unconnected: frames vanish silently
                if not link.up:
                    self.frames_lost_link_down += len(outgoing)
                    NET_LINK_DROPPED.inc(len(outgoing),
                                         link=self._link_label(link))
                    continue
                peer_endpoint = link.peer((name, card.index))
                model = link.fault_model
                for raw in outgoing:
                    if model is None:
                        self._deliver_raw(peer_endpoint, raw)
                        delivered += 1
                        continue
                    for delay_steps, frame in model.transmit(raw):
                        if delay_steps <= 0:
                            self._deliver_raw(peer_endpoint, frame)
                            delivered += 1
                        else:
                            deliver_at = self.now + \
                                delay_steps * self.step_seconds
                            heapq.heappush(
                                self._in_flight,
                                (deliver_at, self._flight_seq,
                                 peer_endpoint, frame))
                            self._flight_seq += 1
        return delivered

    def _release_in_flight(self) -> int:
        """Deliver delayed frames whose time has come; drop those whose
        link went down while they were in flight."""
        released = 0
        while self._in_flight and self._in_flight[0][0] <= self.now:
            _, _, endpoint, frame = heapq.heappop(self._in_flight)
            link = self._by_endpoint.get(endpoint)
            if link is None or not link.up:
                self.frames_lost_link_down += 1
                if link is not None:
                    NET_LINK_DROPPED.inc(link=self._link_label(link))
                continue
            self._deliver_raw(endpoint, frame)
            released += 1
        return released

    def _deliver_raw(self, endpoint: Endpoint, frame: bytes) -> None:
        name, interface = endpoint
        self.routers[name].line_cards[interface].deliver(frame)

    def run_until_converged(self, max_rounds: int = 600,
                            quiet_rounds: int = 20,
                            watchdog: Optional[Any] = None
                            ) -> ConvergenceReport:
        """Advance until the control plane is quiet for *quiet_rounds*.

        Quiet means no RIPng datagram crossed any link; periodic updates
        restart the clock, so *quiet_rounds* must stay below the update
        interval (30 s at 1 s steps) — on a network running RIPng a quiet
        window that long can never occur and is rejected up front as a
        :class:`ConfigurationError`.

        A *watchdog* (:class:`repro.faults.SimulationWatchdog`) observes
        every round; on non-convergence its diagnosis is attached to the
        report so callers learn *why* the control plane kept churning.
        """
        if quiet_rounds * self.step_seconds >= UPDATE_INTERVAL_S and \
                any(router.ripng for router in self.routers.values()):
            raise ConfigurationError(
                f"quiet_rounds ({quiet_rounds}) x step_seconds "
                f"({self.step_seconds}) = "
                f"{quiet_rounds * self.step_seconds} s, which is not below "
                f"the RIPng update interval ({UPDATE_INTERVAL_S} s): "
                f"periodic updates would reset the quiet counter before it "
                f"ever reached quiet_rounds, so convergence could never be "
                f"detected; lower quiet_rounds or step_seconds")
        registry = get_registry()
        t0 = registry.time() if registry.enabled else 0.0
        quiet = 0
        for round_index in itertools.count():
            if round_index >= max_rounds:
                diagnosis = watchdog.diagnose() if watchdog is not None \
                    else None
                self._publish_convergence(registry, t0, False, round_index)
                return ConvergenceReport(False, round_index,
                                         self.messages_delivered, self.now,
                                         diagnosis=diagnosis)
            delivered = self.step()
            if watchdog is not None:
                watchdog.observe()
            # a round with frames still in flight is not quiet: they will
            # land on a router and may restart the conversation
            quiet = quiet + 1 if delivered == 0 and not self._in_flight \
                else 0
            if quiet >= quiet_rounds:
                self._publish_convergence(registry, t0, True,
                                          round_index + 1)
                return ConvergenceReport(True, round_index + 1,
                                         self.messages_delivered, self.now)
        raise AssertionError("unreachable")

    def _publish_convergence(self, registry, t0: float, converged: bool,
                             rounds: int) -> None:
        NET_CONVERGENCE_ROUNDS.set(rounds)
        NET_CONVERGENCE_RUNS.inc(converged=str(converged).lower())
        if registry.enabled:
            NET_CONVERGENCE_SECONDS.observe(registry.time() - t0)

    # -- inspection -------------------------------------------------------------------

    def route_metric(self, router_name: str,
                     prefix: Ipv6Prefix) -> Optional[int]:
        router = self.routers[router_name]
        if router.ripng is None:
            return None
        return router.ripng.route_metric(prefix)

    def tables_agree_on(self, prefix: Ipv6Prefix) -> bool:
        """Every RIPng router knows *prefix* with a finite metric."""
        for router in self.routers.values():
            if router.ripng is None:
                continue
            metric = router.ripng.route_metric(prefix)
            if metric is None or metric >= 16:
                return False
        return True


def line_topology(count: int, table_kind: str = "balanced-tree",
                  step_seconds: float = 1.0,
                  table_capacity: int = 100) -> Network:
    """R0 -- R1 -- ... -- R(n-1), each with two interfaces."""
    if count < 2:
        raise ReproError("line topology needs at least two routers")
    network = Network(step_seconds=step_seconds)
    for i in range(count):
        addresses = [
            Ipv6Address.parse(f"2001:db8:{i:x}:1::1"),
            Ipv6Address.parse(f"2001:db8:{i:x}:2::1"),
        ]
        network.add_router(Ipv6Router(f"r{i}", addresses,
                                      table_kind=table_kind,
                                      table_capacity=table_capacity))
    for i in range(count - 1):
        network.connect((f"r{i}", 1), (f"r{i + 1}", 0))
    return network


def ring_topology(count: int, table_kind: str = "balanced-tree",
                  step_seconds: float = 1.0,
                  table_capacity: int = 100) -> Network:
    """A cycle of *count* routers (redundant paths, tests split horizon)."""
    if count < 3:
        raise ReproError("ring topology needs at least three routers")
    network = line_topology(count, table_kind=table_kind,
                            step_seconds=step_seconds,
                            table_capacity=table_capacity)
    # close the ring with dedicated third interfaces on the two line ends
    # to avoid clashing with line links
    first = network.routers["r0"]
    last = network.routers[f"r{count - 1}"]
    first_closing = first.add_interface(
        Ipv6Address.parse(f"2001:db8:ff{first.name[1:]}::1"))
    last_closing = last.add_interface(
        Ipv6Address.parse(f"2001:db8:ff{last.name[1:]}::1"))
    network.connect(("r0", first_closing), (f"r{count - 1}", last_closing))
    return network


def seed_fib_routes(network: Network, prefix_count: int,
                    seed: int = 2026) -> int:
    """Originate a synthesized BGP-shaped FIB across a network's routers.

    The :func:`repro.workload.fib.synthesize_fib` routes are distributed
    round-robin over the RIPng routers (sorted by name) as static
    originations, so convergence and chaos scenarios exercise realistic
    provider/customer prefix structure instead of a handful of
    hand-written /64s. Returns the number of routes originated.

    Routers must be sized to learn each other's routes: build the
    topology with ``table_capacity >= prefix_count + 4 * routers``.
    """
    from repro.workload.fib import synthesize_fib

    speakers = [network.routers[name] for name in sorted(network.routers)
                if network.routers[name].ripng is not None]
    if not speakers:
        raise ReproError("no RIPng routers to originate the FIB from")
    routes = synthesize_fib(prefix_count, seed=seed)
    for index, entry in enumerate(routes):
        router = speakers[index % len(speakers)]
        router.ripng.originate(
            entry.prefix,
            interface=entry.interface % router.ripng.interface_count,
            metric=entry.metric)
    return len(routes)
