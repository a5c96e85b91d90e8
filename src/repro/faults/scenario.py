"""Chaos scenarios: compose fault models and link flaps, assert recovery.

A :class:`ChaosScenario` wraps an existing
:class:`~repro.router.network.Network` and runs three phases:

1. **baseline** — converge the control plane (fault models are already
   live, so a lossy baseline is itself an experiment);
2. **chaos** — step through the scripted flap window plus any extra
   requested chaos time while a :class:`SimulationWatchdog` and a
   staleness tracker observe every round;
3. **recovery** — converge again and measure how long that took.

When nothing was scripted and no round of chaos ran (no flaps,
``chaos_seconds=0``), phases 2–3 are skipped entirely and the report
reproduces ``run_until_converged`` byte-for-byte — the scenario layer
costs nothing unless it injects something.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import FaultInjectionError
from repro.faults.flaps import FlapSchedule
from repro.faults.model import FaultModel, FaultStatistics
from repro.faults.seeds import spread_seed
from repro.faults.watchdog import SimulationWatchdog, WatchdogDiagnosis
from repro.ipv6.address import Ipv6Prefix
from repro.ipv6.ripng import METRIC_INFINITY
from repro.router.network import ConvergenceReport, Network

#: simulated seconds a scenario runs past its last scripted flap, so the
#: flap's effect is observable
SETTLE_SECONDS = 1.0

#: factory mapping a link index to its fault model (None = leave clean)
FaultFactory = Callable[[int], Optional[FaultModel]]


@dataclass
class ResilienceReport:
    """Everything a resilience experiment needs to assert and publish."""

    converged: bool
    baseline: ConvergenceReport
    recovery: Optional[ConvergenceReport]
    chaos_rounds: int
    total_rounds: int
    messages_delivered: int
    time_to_reconverge: float
    worst_route_staleness: float
    frames: FaultStatistics
    frames_lost_link_down: int
    link_flaps_applied: int
    router_drops: Dict[str, int] = field(default_factory=dict)
    #: control-plane refusals in the shared vocabulary of
    #: :func:`repro.faults.control.control_plane_drops`, so chaos and
    #: conformance/assault reports name the same events identically
    control_drops: Dict[str, int] = field(default_factory=dict)
    peak_queue_depth: int = 0
    prefixes_checked: int = 0
    prefixes_disagreeing: List[str] = field(default_factory=list)
    diagnosis: Optional[WatchdogDiagnosis] = None

    @property
    def all_tables_agree(self) -> bool:
        return not self.prefixes_disagreeing

    def summary(self) -> str:
        lines = [
            f"converged: {self.converged} "
            f"(baseline {self.baseline.rounds} rounds, "
            f"chaos {self.chaos_rounds} rounds, "
            f"reconverged in {self.time_to_reconverge:g} s)",
            f"frames: {self.frames.injected} injected, "
            f"{self.frames.dropped} dropped, "
            f"{self.frames.corrupted} corrupted, "
            f"{self.frames.duplicated} duplicated, "
            f"{self.frames.reordered} reordered, "
            f"{self.frames.delayed} delayed, "
            f"{self.frames_lost_link_down} lost to down links",
            f"link flaps applied: {self.link_flaps_applied}",
            f"worst route staleness: {self.worst_route_staleness:g} s",
            f"peak line-card queue depth: {self.peak_queue_depth}",
        ]
        if self.router_drops:
            drops = ", ".join(f"{reason}={count}" for reason, count
                              in sorted(self.router_drops.items()))
            lines.append(f"router drops: {drops}")
        if self.control_drops:
            drops = ", ".join(f"{reason}={count}" for reason, count
                              in sorted(self.control_drops.items()))
            lines.append(f"control-plane drops: {drops}")
        lines.append(
            f"routing tables agree on {self.prefixes_checked - len(self.prefixes_disagreeing)}"
            f"/{self.prefixes_checked} advertised prefixes")
        if self.prefixes_disagreeing:
            lines.append("disagreeing: "
                         + ", ".join(self.prefixes_disagreeing))
        if self.diagnosis is not None and not self.diagnosis.quiet:
            lines.append(self.diagnosis.summary())
        return "\n".join(lines)

    def render(self) -> str:
        return self.summary()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (the common ``render``/``to_dict`` pair)."""
        def convergence(report: Optional[ConvergenceReport]):
            if report is None:
                return None
            return {"converged": report.converged,
                    "rounds": report.rounds,
                    "messages_delivered": report.messages_delivered,
                    "time_elapsed": report.time_elapsed}

        return {
            "converged": self.converged,
            "baseline": convergence(self.baseline),
            "recovery": convergence(self.recovery),
            "chaos_rounds": self.chaos_rounds,
            "total_rounds": self.total_rounds,
            "messages_delivered": self.messages_delivered,
            "time_to_reconverge": self.time_to_reconverge,
            "worst_route_staleness": self.worst_route_staleness,
            "frames": {
                "injected": self.frames.injected,
                "dropped": self.frames.dropped,
                "corrupted": self.frames.corrupted,
                "duplicated": self.frames.duplicated,
                "reordered": self.frames.reordered,
                "delayed": self.frames.delayed,
            },
            "frames_lost_link_down": self.frames_lost_link_down,
            "link_flaps_applied": self.link_flaps_applied,
            "router_drops": dict(self.router_drops),
            "control_drops": dict(self.control_drops),
            "peak_queue_depth": self.peak_queue_depth,
            "prefixes_checked": self.prefixes_checked,
            "prefixes_disagreeing": list(self.prefixes_disagreeing),
            "all_tables_agree": self.all_tables_agree,
        }


class _StalenessTracker:
    """Longest interval any router lacked a finite route to an
    advertised prefix, measured from the end of the baseline phase."""

    def __init__(self, network: Network, prefixes: List[Ipv6Prefix]):
        self.network = network
        self.prefixes = prefixes
        self.worst = 0.0
        self._stale_since: Dict[Tuple[str, Ipv6Prefix], float] = {}

    def observe(self) -> None:
        now = self.network.now
        for name, router in self.network.routers.items():
            if router.ripng is None:
                continue
            for prefix in self.prefixes:
                key = (name, prefix)
                metric = router.ripng.route_metric(prefix)
                stale = metric is None or metric >= METRIC_INFINITY
                if stale:
                    since = self._stale_since.setdefault(key, now)
                    self.worst = max(self.worst, now - since)
                elif key in self._stale_since:
                    since = self._stale_since.pop(key)
                    self.worst = max(self.worst, now - since)


def advertised_prefixes(network: Network) -> List[Ipv6Prefix]:
    """Every connected/static prefix any RIPng router originates."""
    prefixes = []
    seen = set()
    for router in network.routers.values():
        if router.ripng is None:
            continue
        for prefix, route in router.ripng.routes.items():
            if route.learned_from is None and prefix not in seen:
                seen.add(prefix)
                prefixes.append(prefix)
    return prefixes


class ChaosScenario:
    """One composed resilience experiment over a network."""

    def __init__(self, network: Network,
                 fault_factory: Optional[FaultFactory] = None,
                 flaps: Optional[FlapSchedule] = None,
                 chaos_seconds: float = 0.0,
                 max_rounds: int = 600,
                 quiet_rounds: int = 20,
                 recovery_max_rounds: int = 900):
        if chaos_seconds < 0:
            raise FaultInjectionError(
                f"chaos_seconds must be non-negative, got {chaos_seconds}")
        self.network = network
        self.fault_factory = fault_factory
        self.flaps = flaps
        self.chaos_seconds = chaos_seconds
        self.max_rounds = max_rounds
        self.quiet_rounds = quiet_rounds
        self.recovery_max_rounds = recovery_max_rounds
        self._models: List[FaultModel] = []
        self._ran = False

    @classmethod
    def uniform(cls, network: Network, seed: int = 0,
                drop: float = 0.0, corrupt: float = 0.0,
                duplicate: float = 0.0, reorder: float = 0.0,
                latency_steps: int = 0, jitter_steps: int = 0,
                **kwargs) -> "ChaosScenario":
        """Same fault parameters on every link, per-link derived seeds."""

        def factory(index: int) -> FaultModel:
            return FaultModel(seed=spread_seed(seed, index),
                              drop_probability=drop,
                              corrupt_probability=corrupt,
                              duplicate_probability=duplicate,
                              reorder_probability=reorder,
                              latency_steps=latency_steps,
                              jitter_steps=jitter_steps)

        return cls(network, fault_factory=factory, **kwargs)

    def run(self) -> ResilienceReport:
        if self._ran:
            raise FaultInjectionError(
                "a ChaosScenario is one-shot; build a new one to re-run")
        self._ran = True
        network = self.network

        if self.fault_factory is not None:
            for index, link in enumerate(network.links):
                model = self.fault_factory(index)
                if model is not None:
                    link.fault_model = model
                    self._models.append(model)
        if self.flaps is not None:
            network.set_flap_schedule(self.flaps)

        watchdog = SimulationWatchdog(network)
        baseline = network.run_until_converged(
            max_rounds=self.max_rounds, quiet_rounds=self.quiet_rounds,
            watchdog=watchdog)

        staleness = _StalenessTracker(network, advertised_prefixes(network))
        chaos_end = network.now + self.chaos_seconds
        if self.flaps is not None and len(self.flaps):
            # run at least until the last scripted event has been applied
            chaos_end = max(chaos_end, self.flaps.end_time + SETTLE_SECONDS)
        chaos_rounds = 0
        while network.now < chaos_end:
            network.step()
            watchdog.observe()
            staleness.observe()
            chaos_rounds += 1

        recovery: Optional[ConvergenceReport] = None
        time_to_reconverge = 0.0
        if chaos_rounds:
            recovery_start = network.now
            recovery = network.run_until_converged(
                max_rounds=self.recovery_max_rounds,
                quiet_rounds=self.quiet_rounds, watchdog=watchdog)
            staleness.observe()
            time_to_reconverge = network.now - recovery_start

        return self._build_report(baseline, recovery, chaos_rounds,
                                  time_to_reconverge, staleness, watchdog)

    def _build_report(self, baseline: ConvergenceReport,
                      recovery: Optional[ConvergenceReport],
                      chaos_rounds: int, time_to_reconverge: float,
                      staleness: _StalenessTracker,
                      watchdog: SimulationWatchdog) -> ResilienceReport:
        network = self.network
        frames = FaultStatistics()
        for model in self._models:
            frames.merge(model.stats)
        # local import: control.py imports advertised_prefixes from here
        from repro.faults.control import control_plane_drops
        router_drops: Dict[str, int] = {}
        control_drops: Dict[str, int] = {}
        peak_queue = 0
        for router in network.routers.values():
            for reason, count in router.stats.dropped.items():
                router_drops[reason] = router_drops.get(reason, 0) + count
            for reason, count in control_plane_drops(router).items():
                control_drops[reason] = \
                    control_drops.get(reason, 0) + count
            for card in router.line_cards:
                peak_queue = max(peak_queue, card.peak_depth)
        prefixes = staleness.prefixes or advertised_prefixes(network)
        disagreeing = [str(prefix) for prefix in prefixes
                       if not network.tables_agree_on(prefix)]
        final = recovery if recovery is not None else baseline
        converged = final.converged
        diagnosis = final.diagnosis
        if not converged and diagnosis is None:
            diagnosis = watchdog.diagnose()
        rounds = baseline.rounds + chaos_rounds \
            + (recovery.rounds if recovery is not None else 0)
        return ResilienceReport(
            converged=converged,
            baseline=baseline,
            recovery=recovery,
            chaos_rounds=chaos_rounds,
            total_rounds=rounds,
            messages_delivered=network.messages_delivered,
            time_to_reconverge=time_to_reconverge,
            worst_route_staleness=staleness.worst,
            frames=frames,
            frames_lost_link_down=network.frames_lost_link_down,
            link_flaps_applied=network.link_flaps_applied,
            router_drops=router_drops,
            control_drops=control_drops,
            peak_queue_depth=peak_queue,
            prefixes_checked=len(prefixes),
            prefixes_disagreeing=disagreeing,
            diagnosis=diagnosis)
