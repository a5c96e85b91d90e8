"""Backend-equivalence oracle: prove an execution engine bit-identical.

The compiled fast path (:mod:`repro.tta.compiled`) is only admissible
because it promises the *same answer* as the reference interpreter —
not approximately, not statistically: the identical
:class:`~repro.tta.stats.SimulationReport` and the identical forwarded
bytes on every line card, for every configuration in the paper's
Table 1 grid. This module is the proof obligation: it runs the same
workload under both engines and byte-compares canonical JSON signatures
of everything either run observably produced.

The signature deliberately includes more than the SDC oracle's
(:func:`repro.verify.oracle._forwarding_signature`): per-bus busy
cycles, squashed moves, per-FU trigger counts, and the exact
transmitted frames (hex) — a fast path that got utilisation accounting
wrong while forwarding correctly must still fail here.

The default grid is the nine Table 1 configurations plus CAM variants
at ``search latency > 1`` (the evaluator's fixed point visits those, and
they exercise the compiled backend's generic multi-cycle FU path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dse.config import (
    ArchitectureConfiguration,
    paper_configurations,
    table1_configurations,
)
from repro.programs.runner import (
    ForwardingRunResult,
    RunOptions,
    run_forwarding,
)
from repro.routing.entry import RouteEntry
from repro.tta.backends import DEFAULT_BACKEND, resolve_backend_name

#: the semantics oracle every other engine is measured against
REFERENCE_BACKEND = DEFAULT_BACKEND

#: extra CAM search latencies the default grid covers (latency 1 is the
#: stock configuration; > 1 takes the generic multi-cycle path)
DEFAULT_CAM_LATENCIES: Tuple[int, ...] = (2, 3)


def table1_grid(cam_latencies: Sequence[int] = DEFAULT_CAM_LATENCIES,
                ) -> List[ArchitectureConfiguration]:
    """The paper's nine-configuration grid, plus CAM latency variants."""
    grid = table1_configurations()
    for latency in cam_latencies:
        for config in paper_configurations("cam"):
            grid.append(config.with_cam_latency(latency))
    return grid


def run_signature(result: ForwardingRunResult) -> Dict[str, object]:
    """Canonical JSON-ready digest of everything one run produced.

    Two runs are equivalent exactly when their signatures serialise to
    the same bytes (:func:`signature_bytes`).
    """
    report = result.report
    cards: Dict[str, List[str]] = {}
    if result.machine is not None:
        cards = {str(card.index): [frame.hex()
                                   for frame in card.transmitted]
                 for card in result.machine.line_cards}
    return {
        "cards": cards,
        "cycles": report.cycles,
        "instructions_fetched": report.instructions_fetched,
        "moves_executed": report.moves_executed,
        "moves_squashed": report.moves_squashed,
        "bus_busy_cycles": list(report.bus_busy_cycles),
        "fu_triggers": {name: report.fu_triggers[name]
                        for name in sorted(report.fu_triggers)},
        "halted": report.halted,
        "packets_forwarded": result.packets_forwarded,
        "packets_dropped": result.packets_dropped,
        "program_length": result.program_length,
        "mismatches": list(result.mismatches),
    }


def signature_bytes(signature: Dict[str, object]) -> bytes:
    """The byte string two equivalent runs must agree on."""
    return json.dumps(signature, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def diff_signatures(reference: Dict[str, object],
                    candidate: Dict[str, object]) -> List[str]:
    """Human-readable field-level divergences (empty = identical)."""
    diffs: List[str] = []
    for key in sorted(set(reference) | set(candidate)):
        expected = reference.get(key)
        actual = candidate.get(key)
        if expected == actual:
            continue
        if key == "cards":
            gcards = expected or {}
            fcards = actual or {}
            for index in sorted(set(gcards) | set(fcards)):
                if gcards.get(index) != fcards.get(index):
                    diffs.append(
                        f"card {index}: {len(gcards.get(index, []))} vs "
                        f"{len(fcards.get(index, []))} datagrams"
                        if len(gcards.get(index, []))
                        != len(fcards.get(index, []))
                        else f"card {index}: content differs")
        elif key == "fu_triggers":
            gfus = expected or {}
            ffus = actual or {}
            for name in sorted(set(gfus) | set(ffus)):
                if gfus.get(name) != ffus.get(name):
                    diffs.append(f"fu_triggers[{name}]: "
                                 f"{gfus.get(name)} vs {ffus.get(name)}")
        else:
            diffs.append(f"{key}: {expected} vs {actual}")
    return diffs


@dataclass
class BackendComparison:
    """One configuration's reference-vs-candidate verdict."""

    config: ArchitectureConfiguration
    backend: str
    #: the engine that actually executed (a hook may have forced the
    #: candidate back onto the interpreter)
    executed_backend: str
    identical: bool
    diffs: List[str] = field(default_factory=list)
    cycles: int = 0

    def render(self) -> str:
        verdict = "identical" if self.identical \
            else "DIVERGED: " + "; ".join(self.diffs)
        label = self.config.label()
        if self.config.table_kind == "cam" \
                and self.config.cam_search_latency != 1:
            label += f"@lat{self.config.cam_search_latency}"
        return (f"{self.config.table_kind:<13} {label:<22} "
                f"{self.cycles:>8} cycles  {verdict}")

    def to_dict(self) -> Dict[str, object]:
        import dataclasses
        return {
            "config": dataclasses.asdict(self.config),
            "label": self.config.label(),
            "table_kind": self.config.table_kind,
            "backend": self.backend,
            "executed_backend": self.executed_backend,
            "identical": self.identical,
            "diffs": list(self.diffs),
            "cycles": self.cycles,
        }


@dataclass
class BackendEquivalenceReport:
    """Grid-wide verdict for one candidate engine."""

    backend: str
    reference: str
    comparisons: List[BackendComparison]

    @property
    def passed(self) -> bool:
        return all(c.identical for c in self.comparisons)

    @property
    def divergent(self) -> List[BackendComparison]:
        return [c for c in self.comparisons if not c.identical]

    def render(self) -> str:
        lines = [f"backend equivalence: {self.backend!r} vs "
                 f"{self.reference!r} over {len(self.comparisons)} "
                 f"configuration(s)"]
        lines += [c.render() for c in self.comparisons]
        lines.append("PASS: bit-identical on every configuration"
                     if self.passed else
                     f"FAIL: {len(self.divergent)} configuration(s) "
                     f"diverged")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "reference": self.reference,
            "passed": self.passed,
            "comparisons": [c.to_dict() for c in self.comparisons],
        }


def verify_backend(backend: str = "compiled",
                   configs: Optional[
                       Sequence[ArchitectureConfiguration]] = None,
                   entries: int = 20,
                   packet_batch: int = 4,
                   routes: Optional[Sequence[RouteEntry]] = None,
                   packets: Optional[Sequence[Tuple[int, bytes]]] = None,
                   reference: str = REFERENCE_BACKEND,
                   ) -> BackendEquivalenceReport:
    """Run the differential proof for *backend* across a config grid.

    Defaults to the full Table 1 grid (:func:`table1_grid`) on the same
    deterministic workload family the performance sweeps use. Raises
    nothing on divergence — inspect ``report.passed`` / ``render()``.
    """
    from repro.workload import generate_routes, worst_case_workload

    if configs is None:
        configs = table1_grid()
    if routes is None:
        routes = generate_routes(entries)
    if packets is None:
        packets = worst_case_workload(list(routes), packet_batch)

    comparisons: List[BackendComparison] = []
    for config in configs:
        golden = run_forwarding(
            config, routes, packets,
            options=RunOptions(backend=reference))
        candidate = run_forwarding(
            config, routes, packets,
            options=RunOptions(backend=backend))
        ref_sig = run_signature(golden)
        cand_sig = run_signature(candidate)
        identical = signature_bytes(ref_sig) == signature_bytes(cand_sig)
        comparisons.append(BackendComparison(
            config=config,
            backend=resolve_backend_name(backend),
            executed_backend=candidate.backend,
            identical=identical,
            diffs=[] if identical else diff_signatures(ref_sig, cand_sig),
            cycles=golden.report.cycles))
    return BackendEquivalenceReport(
        backend=resolve_backend_name(backend),
        reference=resolve_backend_name(reference),
        comparisons=comparisons)
