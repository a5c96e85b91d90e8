"""Stable public facade for the repro package.

The one import users need::

    from repro import api

    result = api.evaluate(api.ArchitectureConfiguration(
        bus_count=3, table_kind="cam"))
    rows = api.table1(jobs=4)          # parallel sweep, identical output
    print(api.render_table1(rows))
    outcome = api.explore(max_power=25.0, jobs=4)
    report = api.run_chaos(seed=42, drop=0.10)

Every simulation entry point accepts ``backend=`` — ``"interpreter"``
(the reference loop, the default), ``"compiled"`` (the pre-decoded fast
path, bit-identical reports), or ``"auto"``. :func:`backends` lists
the engine names; see :mod:`repro.tta.backends`.

Everything here returns the library's existing dataclasses
(:class:`EvaluationResult`, :class:`Table1Row`,
:class:`ExplorationOutcome`, :class:`ResilienceReport` — each with the
uniform ``render()`` / ``to_dict()`` pair), so moving from the facade to
the deep modules later costs nothing. The deep module paths
(``repro.dse.evaluator``, ``repro.faults.scenario``, ...) remain
importable but are **not** covered by any stability promise; this module
is.

Table 1 and the explorer always run on one
:class:`~repro.dse.campaign.CampaignRunner`; every sweep runs on the
journaled sweep engine (:mod:`repro.dse.sweep`). ``jobs=N`` fans a sweep
out over a ``multiprocessing`` process pool (one evaluator per worker);
the default ``jobs=1`` measures in this process. Parallel output is
byte-identical to sequential output, and the crash-safe
``journal``/``resume`` options work the same either way.

The ``taco-explore`` command line (:mod:`repro.cli`) is a thin argparse
layer over this module: it calls nothing else. Importing this module
loads the Table-1 engine only; every other subsystem is imported by
the function, or on the first lookup of the name, that needs it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._lazy import lazy_exports
from repro.dse.campaign import (
    CampaignResult,
    CampaignRunner,
    run_table1_campaign,
    table1_workload,
)
from repro.dse.config import (
    ALL_TABLE_KINDS,
    DEFAULT_MEMORY_FLIPS,
    DEFAULT_MEMORY_LOOKUPS,
    DEFAULT_RATE,
    DEFAULT_TRIALS,
    TABLE_KINDS,
    ArchitectureConfiguration,
)
from repro.dse.evaluator import (
    DEFAULT_PACKET_BATCH,
    DEFAULT_TABLE_ENTRIES,
    EvaluationResult,
)
from repro.dse.sweep import SupervisionPolicy, write_atomic
from repro.dse.table1 import (
    Table1Row,
    render_table1,
    shape_checks,
    table1_to_dict,
)
from repro.obs import MetricsRegistry, get_registry, render_snapshot
from repro.programs.machine import build_machine
from repro.programs.runner import RunOptions
from repro.tta.backends import BACKEND_AUTO, BACKENDS
from repro.tta.simulator import DEFAULT_MAX_CYCLES

# Every subcommand runs the Table-1 engine imported above; the names
# below belong to other subsystems and load on first lookup.
__getattr__, __dir__, _SUBSYSTEM_NAMES = lazy_exports(__name__, {
    "repro.conformance": ("ConformanceReport",),
    "repro.dse.explorer": ("ExplorationOutcome",),
    "repro.dse.lookup_sweep": ("LookupSweepResult",),
    "repro.dse.pareto": ("DesignConstraints",),
    "repro.dse.sdc": ("MemorySweepResult", "SdcSweepResult"),
    "repro.dse.space": ("DesignSpace",),
    "repro.faults.control": ("AssaultReport",),
    "repro.faults.flaps": ("FlapSchedule",),
    "repro.faults.scenario": ("ResilienceReport",),
    "repro.pcap": ("ReplayReport",),
    "repro.reporting": ("render_hazard_summary",),
    "repro.router.network": ("RipngRun",),
    "repro.service": ("CampaignService", "JobRecord", "ServiceChaosReport"),
})

__all__ = [
    "evaluate",
    "table1",
    "table1_campaign",
    "lookup_sweep",
    "explore",
    "explore_campaign",
    "backends",
    "describe",
    "conformance",
    "replay_pcap",
    "ripng",
    "run_assault",
    "run_chaos",
    "sdc_sweep",
    "memory_sdc_sweep",
    "campaign_service",
    "service_chaos",
    "metrics",
    "metrics_registry",
    "render_metrics",
    "render_table1",
    "shape_checks",
    "table1_to_dict",
    "write_atomic",
    "ALL_TABLE_KINDS",
    "BACKEND_AUTO",
    "DEFAULT_MAX_CYCLES",
    "TABLE_KINDS",
    "ArchitectureConfiguration",
    "CampaignResult",
    "EvaluationResult",
    "RunOptions",
    "SupervisionPolicy",
    "Table1Row",
    *_SUBSYSTEM_NAMES,
]


def _campaign(*, jobs: int, journal: Optional[str], resume: bool,
              **workload) -> CampaignRunner:
    """The one campaign runner every Table 1 and explorer run goes
    through, whatever the job count and whether or not it journals."""
    factory, cycle_budget = table1_workload(**workload)
    return CampaignRunner(factory(), journal_path=journal, resume=resume,
                          cycle_budget=cycle_budget, jobs=jobs)


def backends() -> Tuple[str, ...]:
    """The simulation engine names, reference (``"interpreter"``) first.

    Pass one, or ``BACKEND_AUTO``, as the ``backend=`` argument anywhere
    in this facade.
    """
    return tuple(BACKENDS)


def evaluate(config: ArchitectureConfiguration, *,
             entries: int = DEFAULT_TABLE_ENTRIES,
             packets: int = DEFAULT_PACKET_BATCH,
             hazards: bool = False,
             max_cycles: Optional[int] = None,
             backend: Optional[str] = None) -> EvaluationResult:
    """Evaluate one architecture configuration (simulate + estimate).

    *entries*/*packets* size the routing-table workload; *hazards*
    attaches the TTA hazard detector; *max_cycles* caps the simulation
    (default :data:`DEFAULT_MAX_CYCLES`; below 1 is refused before
    anything runs); *backend* picks the simulation engine (see
    :func:`backends`). A single evaluation always runs in-process.
    """
    factory, max_cycles = table1_workload(
        entries=entries, packets=packets, hazards=hazards, backend=backend,
        cycle_budget=max_cycles)
    return factory().evaluate(config, max_cycles=max_cycles)


def table1(**options) -> List[Table1Row]:
    """Regenerate the paper's Table 1 (nine rows, paper values attached):
    the rows of :func:`table1_campaign`, which takes the same keyword
    options."""
    rows, _ = table1_campaign(**options)
    return rows


def table1_campaign(*, entries: int = DEFAULT_TABLE_ENTRIES,
                    packets: int = DEFAULT_PACKET_BATCH,
                    jobs: int = 1,
                    journal: Optional[str] = None,
                    resume: bool = False,
                    cycle_budget: Optional[int] = None,
                    hazards: bool = False,
                    backend: Optional[str] = None,
                    prefixes: Optional[int] = None,
                    seed: int = 2026,
                    kinds: Sequence[str] = TABLE_KINDS
                    ) -> Tuple[List[Table1Row], CampaignResult]:
    """Table 1 rows plus the campaign that produced them.

    Every configuration is evaluated by one :class:`CampaignRunner`:
    with ``jobs > 1`` over a process pool, and the rows — and their
    rendering via :func:`render_table1` — are byte-identical to a
    sequential run. ``journal``/``resume`` make the sweep crash-safe
    exactly as on the CLI. Configurations whose evaluation fails are
    quarantined: absent from the rows, listed in the campaign's
    ``failures``. *prefixes* replaces the paper workload with a
    synthesized BGP-shaped FIB (seeded by *seed*); *kinds* picks the
    table options (:data:`ALL_TABLE_KINDS` adds the post-paper ones).
    """
    runner = _campaign(entries=entries, packets=packets, hazards=hazards,
                       backend=backend, prefixes=prefixes, seed=seed,
                       jobs=jobs, journal=journal, resume=resume,
                       cycle_budget=cycle_budget)
    return run_table1_campaign(runner, kinds)


def lookup_sweep(*, kinds=None,
                 prefix_counts=None,
                 lookups: Optional[int] = None,
                 seed: int = 2026,
                 jobs: int = 1,
                 journal: Optional[str] = None,
                 resume: bool = False) -> LookupSweepResult:
    """Scaling lookup sweep: every table kind at 10²–10⁶ prefixes.

    Each ``(kind, prefix_count)`` cell bulk-loads a BGP-shaped FIB
    (:mod:`repro.workload.fib`, synthesized once per size and shared by
    every kind), measures mean lookup
    steps under Zipf-skewed traffic, and derives required clock / area /
    power through the calibrated analytic models
    (:mod:`repro.estimation.lookup`). Defaults sweep all five kinds at
    ``(100, 1000, 10000, 100000, 1000000)`` prefixes with
    ``DEFAULT_LOOKUPS`` probes per cell.

    ``jobs``/``journal``/``resume`` behave exactly as in :func:`table1`:
    parallel, resumed, and sequential sweeps produce byte-identical
    output.
    """
    from repro.dse.lookup_sweep import (
        DEFAULT_LOOKUPS,
        DEFAULT_PREFIX_COUNTS,
        LookupSweepRunner,
    )
    runner = LookupSweepRunner(
        kinds=kinds,
        prefix_counts=prefix_counts or DEFAULT_PREFIX_COUNTS,
        lookups=DEFAULT_LOOKUPS if lookups is None else lookups,
        seed=seed, jobs=jobs, journal_path=journal, resume=resume)
    return runner.run()


def explore(**options) -> ExplorationOutcome:
    """Run the heuristic design-space explorer: the outcome of
    :func:`explore_campaign`, which takes the same keyword options."""
    outcome, _ = explore_campaign(**options)
    return outcome


def explore_campaign(*, space: Optional[DesignSpace] = None,
                     max_area: Optional[float] = None,
                     max_power: Optional[float] = None,
                     jobs: int = 1,
                     entries: int = DEFAULT_TABLE_ENTRIES,
                     packets: int = DEFAULT_PACKET_BATCH,
                     journal: Optional[str] = None,
                     resume: bool = False,
                     cycle_budget: Optional[int] = None,
                     hazards: bool = False,
                     backend: Optional[str] = None
                     ) -> Tuple[ExplorationOutcome, CampaignResult]:
    """The explorer's outcome plus the campaign of every evaluation it
    made.

    The explorer runs on one :class:`CampaignRunner`, which expands each
    search frontier (all restart points, all neighbours of the current
    best) as one batch — over a process pool when ``jobs > 1``. It visits
    the same configurations in the same order at every job count, so the
    outcome is byte-identical whatever *jobs* is. ``journal``/``resume``
    behave as in :func:`table1_campaign`.
    """
    from repro.dse.explorer import GreedyExplorer
    from repro.dse.pareto import DesignConstraints
    from repro.dse.space import DesignSpace
    runner = _campaign(entries=entries, packets=packets, hazards=hazards,
                       backend=backend, jobs=jobs, journal=journal,
                       resume=resume, cycle_budget=cycle_budget)
    explorer = GreedyExplorer(runner, DesignConstraints(
        max_area_mm2=max_area, max_power_w=max_power))
    outcome = explorer.explore(space or DesignSpace())
    return outcome, runner.result()


def describe(config: ArchitectureConfiguration, *,
             fmt: str = "text") -> str:
    """The top-level description of *config*'s processor instance: a
    datasheet (``fmt="text"``) or a Graphviz graph (``fmt="dot"``)."""
    from repro.reporting import describe_machine, to_dot
    machine = build_machine(config)
    return to_dot(machine) if fmt == "dot" else describe_machine(machine)


def _network(topology: str, routers: int, prefixes: Optional[int] = None,
             fib_seed: int = 2026) -> Network:
    """A line or ring of RIPng routers. With *prefixes*, every router is
    sized for the whole synthesized FIB plus the prefixes the topology
    itself originates, and the FIB is originated across the routers
    before anything runs, so convergence spreads a realistic table."""
    from repro.router.network import (
        line_topology,
        ring_topology,
        seed_fib_routes,
    )
    builders = {"line": line_topology, "ring": ring_topology}
    if topology not in builders:
        raise ValueError(f"unknown topology {topology!r}; "
                         f"choose 'line' or 'ring'")
    if not prefixes:
        return builders[topology](routers)
    network = builders[topology](
        routers, table_capacity=prefixes + 4 * routers + 8)
    seed_fib_routes(network, prefixes, seed=fib_seed)
    return network


def ripng(*, topology: str = "line",
          routers: int = 4,
          prefixes: Optional[int] = None,
          fib_seed: int = 2026,
          capture: Optional[str] = None) -> RipngRun:
    """Run RIPng to convergence on a line or ring of *routers*.

    *prefixes* originates a synthesized FIB of that many routes across
    the routers first (seeded by *fib_seed*). *capture* taps every link
    and writes the run's frames to that path as a classic pcap, which
    :func:`replay_pcap` can replay.
    """
    from repro.pcap import attach_taps, merged_capture, write_pcap
    from repro.router.network import RipngRun
    network = _network(topology, routers, prefixes, fib_seed)
    taps = attach_taps(network) if capture else None
    report = network.run_until_converged()
    captured = write_pcap(capture, merged_capture(taps)) if capture \
        else None
    return RipngRun(topology=topology, network=network, report=report,
                    captured=captured, capture_path=capture)


def run_chaos(*, topology: str = "line",
              routers: int = 5,
              prefixes: Optional[int] = None,
              fib_seed: int = 2026,
              seed: int = 0,
              drop: float = 0.0,
              corrupt: float = 0.0,
              duplicate: float = 0.0,
              reorder: float = 0.0,
              latency_steps: int = 0,
              jitter_steps: int = 0,
              flaps: Optional[FlapSchedule] = None,
              chaos_seconds: float = 300.0) -> ResilienceReport:
    """Run one seeded fault-injection scenario and report resilience.

    Same seed, same report, bit for bit, on any machine. *prefixes*
    originates a synthesized FIB across the routers first, as in
    :func:`ripng`.
    """
    from repro.faults.scenario import ChaosScenario
    scenario = ChaosScenario.uniform(
        _network(topology, routers, prefixes, fib_seed), seed=seed,
        drop=drop, corrupt=corrupt, duplicate=duplicate, reorder=reorder,
        latency_steps=latency_steps, jitter_steps=jitter_steps,
        flaps=flaps if flaps is not None and len(flaps) else None,
        chaos_seconds=chaos_seconds)
    return scenario.run()


#: CLI-friendly aliases for routing-table kinds
_TABLE_ALIASES = {"tree": "balanced-tree", "trie": "multibit-trie"}


def conformance(*, table_kind: str = "sequential",
                config: Optional[ArchitectureConfiguration] = None,
                mac: bool = True,
                mutant: Optional[str] = None,
                datapath: bool = True) -> ConformanceReport:
    """Run the table-driven forwarding conformance suite.

    The matrix crosses packet kind (tcpv6/udpv6/icmpv6), destination
    class (on-link / LPM / default / no-route) and hop limit (64/1/0),
    asserts the full forwarding contract per case — LPM selection,
    hop-limit decrement, ICMPv6 Time Exceeded / Destination Unreachable,
    my-station check, MAC rewrite, checksum preservation — and
    cross-checks the cycle-accurate TTA datapath against the golden
    model. ``table_kind`` accepts ``"tree"`` as an alias for
    ``"balanced-tree"``; *mutant* names a deliberately broken router or
    program (the suite must then fail, with case-level diagnosis).
    """
    from repro.conformance import run_conformance
    return run_conformance(
        table_kind=_TABLE_ALIASES.get(table_kind, table_kind),
        config=config, mac=mac, mutant=mutant, datapath=datapath)


def run_assault(*, topology: str = "line",
                routers: int = 4,
                seed: int = 2080,
                victim: Optional[str] = None,
                kinds=None,
                attack_rounds: int = 30,
                burst_per_round: int = 2) -> AssaultReport:
    """Drive an adversarial RIPng campaign at a converged network.

    Injects malformed, martian, spoofed-next-hop, withdrawal and
    oversized advertisements (seeded — same seed, same report) and
    asserts graceful degradation: no exceptions, no poisoned routes
    installed, reconvergence, and every attack visible in drop counters.
    """
    from repro.faults.control import ATTACK_KINDS, ControlPlaneAssault
    assault = ControlPlaneAssault(
        _network(topology, routers), victim=victim, seed=seed,
        kinds=tuple(kinds) if kinds else ATTACK_KINDS,
        attack_rounds=attack_rounds, burst_per_round=burst_per_round)
    return assault.run()


def replay_pcap(path: str, *,
                table_kind: str = "sequential",
                interface: int = 0) -> ReplayReport:
    """Replay a classic pcap capture through the conformance fixture,
    measuring per-packet latency (published as obs percentiles)."""
    from repro.pcap import read_pcap, replay
    return replay(read_pcap(path),
                   table_kind=_TABLE_ALIASES.get(table_kind, table_kind),
                   interface=interface)


def sdc_sweep(configs, *,
              entries: int = 20,
              packets: int = 4,
              sites=None,
              trials: int = DEFAULT_TRIALS,
              rate: float = DEFAULT_RATE,
              seed: int = 0,
              max_faults: Optional[int] = None,
              jobs: int = 1,
              journal: Optional[str] = None,
              resume: bool = False) -> SdcSweepResult:
    """Soft-error vulnerability sweep over *configs*.

    Every configuration runs ``trials`` seeded datapath-injection trials
    per fault site (bus transfers, operand/trigger/result latches,
    socket decodes); each trial is classified against the fault-free
    golden run as ``masked`` / ``detected`` / ``sdc`` / ``crash`` /
    ``hang`` by the differential oracle (:mod:`repro.verify`). The
    result carries a per-configuration vulnerability row — SDC rate,
    detection coverage, mean faults-to-failure — plus every trial
    record, and renders to a deterministic text table.

    ``jobs``/``journal``/``resume`` behave exactly as in :func:`table1`:
    parallel, resumed, and sequential sweeps produce byte-identical
    output.
    """
    from repro.dse.sdc import SdcSweepRunner
    runner = SdcSweepRunner(
        entries=entries, packet_batch=packets, sites=sites,
        trials=trials, rate=rate, seed=seed, max_faults=max_faults,
        jobs=jobs, journal_path=journal, resume=resume)
    return runner.run(list(configs))


def memory_sdc_sweep(*, kinds=None,
                     protections=None,
                     prefixes: int = 1000,
                     lookups: int = DEFAULT_MEMORY_LOOKUPS,
                     trials: int = DEFAULT_TRIALS,
                     flips: int = DEFAULT_MEMORY_FLIPS,
                     seed: int = 0,
                     fib_seed: int = 2026,
                     jobs: int = 1,
                     journal: Optional[str] = None,
                     resume: bool = False) -> MemorySweepResult:
    """Table-state (stored FIB) soft-error vulnerability sweep.

    Where :func:`sdc_sweep` flips bits *in flight* on the datapath,
    this sweep flips bits *at rest*: each trial loads a routing table
    of every requested kind with a synthesized ``prefixes``-route FIB
    (:mod:`repro.workload.fib`), corrupts one of its memory sites
    (entries, tree nodes, CAM rows, trie node/slot arrays, Bloom
    vectors and buckets), replays Zipf traffic against the differential
    oracle, and classifies the divergence. Each (kind, protection)
    cell also prices its parity/checksum hardware via
    :func:`repro.estimation.estimate_protection_overhead`, so the
    result reads as a protection-cost-vs-SDC-rate tradeoff.

    ``jobs``/``journal``/``resume`` behave exactly as in
    :func:`sdc_sweep`: sequential, parallel, and resumed sweeps are
    byte-identical.
    """
    from repro.dse.sdc import MemorySweepRunner
    runner = MemorySweepRunner(
        kinds=kinds, protections=protections, prefixes=prefixes,
        lookups=lookups, trials=trials, flips=flips, seed=seed,
        fib_seed=fib_seed, jobs=jobs, journal_path=journal,
        resume=resume)
    return runner.run()


def campaign_service(root: str, *,
                     jobs: int = 1,
                     cache: bool = True,
                     heartbeat: Optional[float] = (
                         SupervisionPolicy.heartbeat_seconds),
                     job_timeout: Optional[float] = None,
                     min_jobs: int = 1,
                     seed: int = 0) -> CampaignService:
    """Open the self-healing campaign service at *root*.

    A plan is the keywords of :func:`table1_campaign` (all but ``jobs``,
    ``journal`` and ``resume``, which the service owns); the first
    ``submit`` creates the spool. The async-style flow::

        svc = api.campaign_service("/tmp/dse", jobs=4)
        job_id = svc.submit({"entries": 50, "prefixes": 1000})
        svc.run_pending()               # or: repro serve --root /tmp/dse
        print(svc.poll(job_id))         # progress while running
        document = svc.fetch(job_id)    # completed result + render

    Jobs execute under supervision (stall teardown, pool degradation,
    capped backoff, job deadline) against a SHA-256
    integrity-checked evaluation cache shared across jobs; a service
    that crashes mid-job recovers on the next start and *resumes* from
    the job's journal — fetched results are byte-identical to an
    uninterrupted sequential run.
    """
    from repro.service import CampaignService
    return CampaignService(
        root, jobs=jobs, cache=cache, seed=seed,
        supervision=SupervisionPolicy(heartbeat_seconds=heartbeat,
                                      job_timeout_seconds=job_timeout,
                                      min_jobs=min_jobs))


def service_chaos(root: Optional[str] = None, *,
                  entries: int = 10,
                  packets: int = 2,
                  jobs: int = 2,
                  seed: int = 0) -> ServiceChaosReport:
    """Run the service-level chaos campaign (see
    :mod:`repro.service.chaos`): worker kills, workers hung past the stall
    deadline, cache corruption/truncation, and a service crash/restart
    mid-job — each phase asserting recovery to byte-identical results
    against a clean sequential run, plus a warm-cache speedup floor.
    *root* defaults to a fresh temporary directory.
    """
    from repro.service import run_service_chaos
    if root is None:
        import tempfile
        root = tempfile.mkdtemp(prefix="repro-service-chaos-")
    return run_service_chaos(root, entries=entries, packets=packets,
                             jobs=jobs, seed=seed)


def metrics(*, reset: bool = False) -> dict:
    """Snapshot of the process-wide metrics registry (JSON-ready).

    Every facade call above publishes into the same registry
    (:mod:`repro.obs`): simulation throughput, per-evaluation latency,
    routing-table activity, network convergence, pool utilisation.
    ``reset=True`` clears recorded values after snapshotting, so a
    caller can attribute metrics to one workload at a time. Disable the
    layer entirely with ``REPRO_NO_METRICS=1`` or
    ``metrics_registry().disable()``.
    """
    snapshot = get_registry().snapshot()
    if reset:
        get_registry().reset()
    return snapshot


def metrics_registry() -> MetricsRegistry:
    """The live process-wide registry (enable/disable/reset/instrument)."""
    return get_registry()


def render_metrics(snapshot: Optional[dict] = None) -> str:
    """Fixed-width table for a metrics snapshot (default: the live one)."""
    return render_snapshot(snapshot if snapshot is not None
                           else get_registry().snapshot())
