"""Convergence watchdog: explain *why* a simulation is not converging.

``Network.run_until_converged`` used to answer non-convergence with a
bare ``converged=False``. The watchdog samples the network every round
and, on demand, produces a :class:`WatchdogDiagnosis` naming the routers
that are still emitting RIPng updates and the prefixes whose metrics
keep changing — the two observable symptoms of control-plane churn
(slow count-to-infinity, a flapping link, or a fault model eating
updates faster than they can refresh routes).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.ipv6.ripng import METRIC_INFINITY

#: trailing rounds a watchdog diagnoses; the chaos and assault harnesses
#: watch this many
WINDOW_ROUNDS = 64

#: (router name, prefix text) -> last observed metric (INFINITY if expired)
_MetricKey = Tuple[str, str]


@dataclass
class WatchdogDiagnosis:
    """Why the control plane is (or was) still churning."""

    rounds_observed: int
    window_rounds: int
    churning_routers: Dict[str, int] = field(default_factory=dict)
    oscillating_prefixes: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def quiet(self) -> bool:
        return not self.churning_routers and not self.oscillating_prefixes

    def summary(self) -> str:
        if self.quiet:
            return (f"control plane quiet over the last "
                    f"{self.window_rounds} rounds")
        lines = [f"control plane churning (last {self.window_rounds} of "
                 f"{self.rounds_observed} observed rounds):"]
        for name, count in sorted(self.churning_routers.items()):
            lines.append(f"  {name}: emitted RIPng updates in "
                         f"{count} round(s)")
        for prefix, routers in sorted(self.oscillating_prefixes.items()):
            lines.append(f"  {prefix}: metric oscillating at "
                         f"{', '.join(sorted(routers))}")
        return "\n".join(lines)


class SimulationWatchdog:
    """Samples a :class:`~repro.router.network.Network` once per round.

    Call :meth:`observe` after every ``network.step()`` (or pass the
    watchdog to ``run_until_converged``, which does it for you), then
    :meth:`diagnose` to get the churn picture for the trailing window.
    """

    #: a prefix is "oscillating" when its metric changed at least this
    #: many times at one router inside the window
    OSCILLATION_THRESHOLD = 2

    def __init__(self, network, window_rounds: int = WINDOW_ROUNDS):
        self.network = network
        self.window_rounds = window_rounds
        self.rounds_observed = 0
        self._updates_sent: Dict[str, int] = {}
        self._metrics: Dict[_MetricKey, int] = {}
        # trailing window of per-round events
        self._churn_window: Deque[Set[str]] = deque(maxlen=window_rounds)
        self._change_window: Deque[List[_MetricKey]] = deque(
            maxlen=window_rounds)

    def observe(self) -> None:
        """Record one round: who sent updates, which metrics moved."""
        self.rounds_observed += 1
        churned: Set[str] = set()
        changed: List[_MetricKey] = []
        live: Set[_MetricKey] = set()
        for name, router in self.network.routers.items():
            engine = router.ripng
            if engine is None:
                continue
            sent = engine.updates_sent
            if sent != self._updates_sent.get(name, 0):
                churned.add(name)
                self._updates_sent[name] = sent
            for prefix, route in engine.routes.items():
                key = (name, str(prefix))
                live.add(key)
                metric = METRIC_INFINITY if route.expired else route.metric
                previous = self._metrics.get(key)
                if previous is not None and previous != metric:
                    changed.append(key)
                self._metrics[key] = metric
        # garbage collection removing a route is a metric change too
        for key in list(self._metrics):
            if key not in live:
                del self._metrics[key]
                changed.append(key)
        self._churn_window.append(churned)
        self._change_window.append(changed)

    def diagnose(self) -> WatchdogDiagnosis:
        """Summarise churn over the trailing window."""
        churning: Dict[str, int] = {}
        for round_set in self._churn_window:
            for name in round_set:
                churning[name] = churning.get(name, 0) + 1
        changes: Dict[_MetricKey, int] = {}
        for round_changes in self._change_window:
            for key in round_changes:
                changes[key] = changes.get(key, 0) + 1
        oscillating: Dict[str, List[str]] = {}
        for (name, prefix), count in changes.items():
            if count >= self.OSCILLATION_THRESHOLD:
                oscillating.setdefault(prefix, []).append(name)
        return WatchdogDiagnosis(
            rounds_observed=self.rounds_observed,
            window_rounds=min(self.window_rounds, self.rounds_observed),
            churning_routers=churning,
            oscillating_prefixes=oscillating)
