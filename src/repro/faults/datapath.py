"""Datapath soft-error injection for the TTA simulator.

Radiation-induced single-event upsets hit a protocol processor in its
datapath, not on its links: a bit flips on an interconnection bus while
a transport is in flight, in an FU's operand/trigger/result latch, or in
the socket address decode so a value lands on the *wrong* port. The
:class:`DatapathFaultInjector` models exactly these sites by chaining
onto :attr:`Simulator.transport_filter <repro.tta.simulator.Simulator>`,
the hook applied between the source read and the destination write.

Because the filter runs *before* ``move_hook`` observers, a stacked
:class:`~repro.tta.hazards.HazardDetector` or
:class:`~repro.tta.trace.TracingSimulator` sees the faulted transport —
like a bus monitor probing real interconnect wires — so detection
coverage can be measured honestly.

Determinism contract (the differential oracle depends on it):

* each fault site owns a private generator seeded with
  :func:`~repro.faults.seeds.derive_seed`\\ ``(seed, site)``, so a
  site's stream depends only on the root seed and the sequence of
  transports eligible for *that* site — enabling or re-rating another
  site never reshuffles it;
* on every transport each eligible site draws its full proposal
  (fire? which bit / which port?) from its own stream, and the first
  firing site in canonical :data:`FAULT_SITES` order is applied — at
  most one fault per transport, like a single particle strike;
* ``rate=0`` is *null*: no randomness is consumed and the filter is a
  pass-through, so an attached-but-disabled injector cannot perturb a
  run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjectionError
from repro.faults.seeds import derive_seed, make_rng
from repro.tta.instruction import Move
from repro.tta.ports import PortKind, PortRef

#: canonical fault sites, in application-precedence order
FAULT_SITES: Tuple[str, ...] = (
    "bus",       # any in-flight transport value
    "operand",   # writes landing in an OPERAND latch
    "trigger",   # writes landing in a TRIGGER latch (starts an operation)
    "result",    # values read out of a RESULT latch
    "socket",    # destination socket decode: value lands on a wrong port
)

#: TACO datapath width: upsets flip one of these bits
WORD_BITS = 32

#: applied faults an injector keeps a record of, so a trial's journal
#: record stays bounded; every fault is still counted
MAX_FAULT_RECORDS = 64


@dataclass(frozen=True)
class DatapathFault:
    """One applied upset, for post-mortem and fixture pinning."""

    cycle: int
    pc: int
    bus: int
    site: str
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"cycle": self.cycle, "pc": self.pc, "bus": self.bus,
                "site": self.site, "detail": self.detail}


class DatapathFaultInjector:
    """Seeded single-event-upset injection on one :class:`Simulator`.

    ``rate`` is the per-site firing probability per eligible transport;
    ``max_faults`` caps total applied upsets (``None`` = unbounded), so
    a sweep can study single-fault behaviour with ``max_faults=1``.
    """

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 sites: Optional[Sequence[str]] = None,
                 max_faults: Optional[int] = None):
        if not 0.0 <= rate <= 1.0:
            raise FaultInjectionError(
                f"rate must be in [0, 1], got {rate}")
        if max_faults is not None and max_faults < 0:
            raise FaultInjectionError(
                f"max_faults must be non-negative, got {max_faults}")
        chosen = tuple(sites) if sites is not None else FAULT_SITES
        unknown = sorted(set(chosen) - set(FAULT_SITES))
        if unknown:
            raise FaultInjectionError(
                f"unknown fault sites {unknown}; "
                f"valid sites are {sorted(FAULT_SITES)}")
        self.seed = seed
        self.rate = rate
        #: canonical order regardless of how the caller listed them
        self.sites = tuple(s for s in FAULT_SITES if s in chosen)
        self.max_faults = max_faults
        self.transports_observed = 0
        self.faults_injected = 0
        self.faults_by_site: Dict[str, int] = {s: 0 for s in self.sites}
        self.faults: List[DatapathFault] = []
        self._rngs = {site: make_rng(derive_seed(seed, site))
                      for site in self.sites}
        self._processor = None

    @property
    def is_null(self) -> bool:
        """True when the injector cannot affect a simulation at all."""
        return self.rate == 0.0 or not self.sites or self.max_faults == 0

    # -- wiring -----------------------------------------------------------------

    def attach(self, simulator):
        """Chain onto *simulator*'s transport filter; returns *simulator*.

        Chains like :meth:`HazardDetector.attach
        <repro.tta.hazards.HazardDetector.attach>`: an existing filter
        keeps running first, this injector transforms its output.
        """
        self._processor = simulator.processor
        previous = simulator.transport_filter
        if previous is None:
            simulator.transport_filter = self.filter_transport
        else:
            def chained(cycle, pc, bus, move, value):
                move, value = previous(cycle, pc, bus, move, value)
                return self.filter_transport(cycle, pc, bus, move, value)

            simulator.transport_filter = chained
        return simulator

    # -- the filter -------------------------------------------------------------

    def filter_transport(self, cycle: int, pc: int, bus: int,
                         move: Move, value: int) -> Tuple[Move, int]:
        """Transport filter: maybe apply one upset to this move."""
        self.transports_observed += 1
        if self.is_null:
            return move, value
        budget_left = (self.max_faults is None
                       or self.faults_injected < self.max_faults)
        applied = None
        for site in self.sites:
            if not self._eligible(site, move):
                continue
            proposal = self._propose(site, move, value)
            if proposal is not None and applied is None and budget_left:
                applied = (site,) + proposal
        if applied is None:
            return move, value
        site, move, value, detail = applied
        self.faults_injected += 1
        self.faults_by_site[site] += 1
        if len(self.faults) < MAX_FAULT_RECORDS:
            self.faults.append(DatapathFault(
                cycle=cycle, pc=pc, bus=bus, site=site, detail=detail))
        return move, value

    def _eligible(self, site: str, move: Move) -> bool:
        if site == "bus" or site == "socket":
            return True
        if site == "result":
            return (isinstance(move.source, PortRef)
                    and self._port_kind(move.source) is PortKind.RESULT)
        kind = self._port_kind(move.destination)
        if site == "operand":
            return kind is PortKind.OPERAND
        if site == "trigger":
            return kind is PortKind.TRIGGER
        return False

    def _port_kind(self, ref: PortRef) -> PortKind:
        _fu, port = self._processor.resolve(ref)
        return port.kind

    def _propose(self, site: str, move: Move,
                 value: int) -> Optional[Tuple[Move, int, str]]:
        """Draw this site's full proposal from its own stream.

        Always consumes the same draws whether or not another site ends
        up winning the transport — per-site stream independence.
        """
        rng = self._rngs[site]
        if rng.random() >= self.rate:
            return None
        if site == "socket":
            misroute = self._misroute(rng, move, value)
            if misroute is not None:
                return misroute
            # FU with a single writable port: decode upset degenerates
            # to a data upset on the same wires
            bit = rng.randrange(WORD_BITS)
            return (move, value ^ (1 << bit),
                    f"socket decode bit flip (no alternative port), "
                    f"bit {bit} of {move.destination}")
        bit = rng.randrange(WORD_BITS)
        return (move, value ^ (1 << bit),
                f"bit {bit} flipped at {site} site "
                f"({move.source} -> {move.destination})")

    def _misroute(self, rng, move: Move,
                  value: int) -> Optional[Tuple[Move, int, str]]:
        fu, _port = self._processor.resolve(move.destination)
        candidates = sorted(
            name for name, port in fu.ports.items()
            if port.is_writable and name != move.destination.port)
        if not candidates:
            return None
        wrong = candidates[rng.randrange(len(candidates))]
        faulted = Move(source=move.source,
                       destination=PortRef(move.destination.fu, wrong),
                       guard=move.guard)
        # value passes through unchanged — it just lands on the wrong latch
        return (faulted, value,
                f"socket misroute {move.destination} -> "
                f"{faulted.destination}")

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-ready statistics (embedded in sweep trial records)."""
        return {
            "transports_observed": self.transports_observed,
            "faults_injected": self.faults_injected,
            "faults_by_site": {site: count for site, count
                               in sorted(self.faults_by_site.items())
                               if count},
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def __repr__(self) -> str:
        return (f"<DatapathFaultInjector seed={self.seed} rate={self.rate} "
                f"sites={'/'.join(self.sites)} "
                f"injected={self.faults_injected}>")
