"""``taco-explore``: command-line front end for the evaluation flows.

Subcommands:

* ``table1`` — regenerate the paper's Table 1 (all nine rows;
  ``--prefixes N`` swaps in a synthesized BGP-shaped FIB and ``--kinds
  all`` adds the post-paper multibit-trie / Bloom rows);
* ``lookup-sweep`` — the scaling study Table 1 cannot host: every
  table kind against synthesized FIBs at 10²–10⁶ prefixes, measured
  lookup steps fed through the calibrated clock/area/power models;
* ``evaluate`` — evaluate one configuration;
* ``explore`` — run the heuristic design-space explorer (future-work tool);
* ``ripng`` — simulate RIPng convergence on a line/ring topology;
* ``chaos`` — run a seeded fault-injection scenario and report resilience;
* ``sdc`` — datapath soft-error sweep: seeded bit flips in bus
  transfers/FU latches/socket decodes, each trial classified against the
  fault-free golden run (masked/detected/sdc/crash/hang);
* ``submit`` — enqueue a campaign plan on the self-healing service
  (spool directory; prints the job id);
* ``serve`` — recover and drain the service's queued jobs under
  supervision (heartbeats, stall teardown, pool degradation, evaluation
  cache);
* ``jobs`` — list/poll service jobs, or fetch a completed result;
* ``service-chaos`` — the service-level chaos campaign: worker kills,
  stalls, cache corruption and a service crash/restart, each asserting
  recovery to byte-identical results;
* ``metrics`` — render a metrics snapshot (live, or the ``metrics``
  section of a saved ``--output`` JSON) as a table.

This module is a thin argparse layer over :mod:`repro.api`: each
subcommand turns its flags into one facade call and prints the result.

``table1`` and ``explore`` always run on one campaign runner, which
journals with ``--journal`` (resume with ``--resume``) and fans out over
a process pool with ``--jobs N``; stdout, ``--output`` and the journal
are byte-identical at every job count. ``--hazards`` attaches the TTA
hazard detector to every simulation.
``--backend interpreter|compiled|auto`` (on ``table1``/``evaluate``/
``explore``/``sdc``/``submit``) selects the simulation engine; the
``compiled`` fast path produces bit-identical reports and falls back to
the interpreter whenever an observation hook is attached.
``--output PATH`` writes the subcommand's result as JSON (the uniform
``to_dict()`` document) atomically to PATH; every such document carries a
``metrics`` section (the process-wide :mod:`repro.obs` snapshot — disable
with ``REPRO_NO_METRICS=1``). Metrics never change what is printed or
measured: stdout is byte-identical with metrics on or off.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import api
from repro.api import write_atomic
from repro.errors import (
    CampaignError,
    FaultInjectionError,
    ReproError,
    ServiceError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS.get(args.command)
    if handler is None:
        parser.print_help()
        return 2
    try:
        return handler(args)
    except CampaignError as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taco-explore",
        description="TACO protocol-processor evaluation for IPv6 routing")
    sub = parser.add_subparsers(dest="command")

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--entries", type=int, default=100,
                        help="routing table size (default 100)")
    table1.add_argument("--prefixes", type=int, default=None, metavar="N",
                        help="replace the paper workload with a "
                             "synthesized BGP-shaped FIB of N prefixes "
                             "(repro.workload.fib)")
    table1.add_argument("--kinds", default="paper",
                        choices=("paper", "all"),
                        help="'paper' = the published three table "
                             "options; 'all' adds multibit-trie and "
                             "Bloom rows")
    table1.add_argument("--seed", type=int, default=2026,
                        help="FIB synthesis seed for --prefixes")
    table1.add_argument("--packets", type=int, default=12,
                        help="measurement batch size (default 12)")
    _add_backend_argument(table1)
    _add_campaign_arguments(table1)
    _add_output_argument(table1)

    sweep = sub.add_parser(
        "lookup-sweep",
        help="scaling sweep: every table kind at 10^2..10^6 prefixes")
    sweep.add_argument("--kind", action="append", default=None,
                       choices=api.ALL_TABLE_KINDS,
                       help="table kind to sweep (repeatable; "
                            "default: all five)")
    sweep.add_argument("--prefixes", type=int, nargs="+", default=None,
                       metavar="N",
                       help="FIB sizes to sweep (default: 100 1000 "
                            "10000 100000 1000000)")
    sweep.add_argument("--lookups", type=int, default=None, metavar="N",
                       help="Zipf-skewed probe addresses per cell "
                            "(default 2000)")
    sweep.add_argument("--seed", type=int, default=2026,
                       help="root seed (sweeps replay bit-for-bit)")
    _add_sweep_arguments(sweep, "cell")
    _add_output_argument(sweep)

    ev = sub.add_parser("evaluate", help="evaluate one configuration")
    ev.add_argument("--buses", type=int, default=1)
    ev.add_argument("--fu-sets", type=int, default=1,
                    help="matcher/counter/comparator count")
    ev.add_argument("--table", default="sequential",
                    choices=api.ALL_TABLE_KINDS)
    ev.add_argument("--entries", type=int, default=100)
    ev.add_argument("--hazards", action="store_true",
                    help="attach the hazard detector and print its report")
    _add_backend_argument(ev)
    _add_output_argument(ev)

    ex = sub.add_parser("explore", help="heuristic design-space exploration")
    ex.add_argument("--max-power", type=float, default=None,
                    help="power budget in watts")
    ex.add_argument("--max-area", type=float, default=None,
                    help="area budget in mm^2")
    _add_backend_argument(ex)
    _add_campaign_arguments(ex)
    _add_output_argument(ex)

    rip = sub.add_parser("ripng", help="RIPng convergence simulation")
    rip.add_argument("--topology", choices=("line", "ring"), default="line")
    rip.add_argument("--routers", type=int, default=4)
    rip.add_argument("--prefixes", type=int, default=None, metavar="N",
                     help="originate a synthesized N-prefix BGP-shaped "
                          "FIB across the routers before converging")
    rip.add_argument("--fib-seed", type=int, default=2026,
                     help="FIB synthesis seed for --prefixes "
                          "(default 2026)")
    rip.add_argument("--capture", default=None, metavar="PATH",
                     help="tap every link and write the run's frames as "
                          "a classic pcap (replayable via "
                          "'conformance --replay')")
    _add_output_argument(rip)

    conf = sub.add_parser(
        "conformance",
        help="table-driven forwarding conformance suite")
    conf.add_argument("--table", default="sequential",
                      choices=("sequential", "tree", "balanced-tree",
                               "cam", "multibit-trie", "trie", "bloom"),
                      help="routing-table implementation under test "
                           "('tree' is an alias for 'balanced-tree', "
                           "'trie' for 'multibit-trie')")
    conf.add_argument("--no-mac", action="store_true",
                      help="skip the link-layer (my-station / MAC "
                           "rewrite) cases")
    conf.add_argument("--no-datapath", action="store_true",
                      help="skip the TTA-vs-golden datapath cross-check")
    conf.add_argument("--mutant", default=None,
                      help="run against a deliberately broken router or "
                           "program (the suite must fail); one of: "
                           "no-decrement, forward-expired, no-icmp, "
                           "wrong-interface, program-no-decrement")
    conf.add_argument("--replay", default=None, metavar="PATH",
                      help="also replay a classic pcap through the "
                           "fixture, with per-packet latency percentiles "
                           "in the metrics section")
    _add_output_argument(conf)

    assault = sub.add_parser(
        "assault", help="adversarial RIPng campaign against a victim")
    assault.add_argument("--topology", choices=("line", "ring"),
                         default="line")
    assault.add_argument("--routers", type=int, default=4)
    assault.add_argument("--seed", type=int, default=2080,
                         help="attack seed (campaigns replay bit-for-bit)")
    assault.add_argument("--kind", action="append", default=None,
                         choices=("malformed", "martian",
                                  "spoofed-next-hop", "withdrawal",
                                  "oversized"),
                         help="attack kind to inject (repeatable; "
                              "default: all five)")
    assault.add_argument("--rounds", type=int, default=30,
                         help="attack rounds (default 30)")
    assault.add_argument("--burst", type=int, default=2,
                         help="hostile datagrams per round (default 2)")
    _add_output_argument(assault)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection / resilience scenario")
    chaos.add_argument("--topology", choices=("line", "ring"),
                       default="line")
    chaos.add_argument("--routers", type=int, default=5)
    chaos.add_argument("--prefixes", type=int, default=None, metavar="N",
                       help="originate a synthesized N-prefix FIB "
                            "across the routers before the chaos phase")
    chaos.add_argument("--fib-seed", type=int, default=2026,
                       help="FIB synthesis seed for --prefixes "
                            "(default 2026)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="scenario seed (runs replay bit-for-bit)")
    chaos.add_argument("--drop", type=float, default=0.0,
                       help="per-frame drop probability on every link")
    chaos.add_argument("--corrupt", type=float, default=0.0,
                       help="per-frame single-bit-flip probability")
    chaos.add_argument("--duplicate", type=float, default=0.0,
                       help="per-frame duplication probability")
    chaos.add_argument("--reorder", type=float, default=0.0,
                       help="per-frame reordering probability")
    chaos.add_argument("--latency", type=int, default=0,
                       help="fixed link latency in simulation steps")
    chaos.add_argument("--jitter", type=int, default=0,
                       help="uniform 0..N extra latency steps")
    chaos.add_argument("--chaos-seconds", type=float, default=300.0,
                       help="chaos phase duration (default 300)")
    chaos.add_argument("--flap", action="append", default=[],
                       metavar="ROUTER:IFACE:DOWN:UP",
                       help="flap a link, e.g. r1:1:60:320 (repeatable)")
    _add_output_argument(chaos)

    sdc = sub.add_parser(
        "sdc", help="soft-error (SDC) vulnerability sweep: datapath "
                    "bit flips by default, stored-FIB (memory-state) "
                    "flips with --prefixes")
    sdc.add_argument("--table", action="append", default=None,
                     choices=api.ALL_TABLE_KINDS,
                     help="routing-table kind to sweep (repeatable; "
                          "datapath default: sequential/balanced-tree/"
                          "cam; memory default: all five)")
    sdc.add_argument("--prefixes", type=int, default=None, metavar="N",
                     help="switch to the memory-state sweep: strike "
                          "stored-FIB bits of tables loaded with a "
                          "synthesized N-prefix FIB (repro.workload.fib)")
    sdc.add_argument("--protection", action="append", default=None,
                     choices=("none", "parity", "checksum"),
                     help="integrity-protection mode for the memory "
                          "sweep (repeatable; default: all three)")
    sdc.add_argument("--lookups", type=int, default=200,
                     help="Zipf probe addresses per memory trial "
                          "(default 200)")
    sdc.add_argument("--flips", type=int, default=1,
                     help="stored bits flipped per memory trial "
                          "(default 1)")
    sdc.add_argument("--fib-seed", type=int, default=2026,
                     help="FIB synthesis seed for --prefixes "
                          "(default 2026)")
    sdc.add_argument("--buses", type=int, nargs="+", default=[1, 2, 3],
                     metavar="N", help="bus counts to sweep (default 1 2 3)")
    sdc.add_argument("--site", action="append", default=None,
                     choices=("bus", "operand", "trigger", "result",
                              "socket"),
                     help="fault site to inject at (repeatable; "
                          "default: all five)")
    sdc.add_argument("--trials", type=int, default=8,
                     help="injection trials per (config, site) (default 8)")
    sdc.add_argument("--rate", type=float, default=0.002,
                     help="per-transport fault probability (default 0.002)")
    sdc.add_argument("--seed", type=int, default=0,
                     help="root seed (sweeps replay bit-for-bit)")
    sdc.add_argument("--max-faults", type=int, default=None, metavar="N",
                     help="cap applied faults per trial (e.g. 1 for "
                          "single-event-upset studies)")
    sdc.add_argument("--entries", type=int, default=20,
                     help="routing table size (default 20)")
    sdc.add_argument("--packets", type=int, default=4,
                     help="measurement batch size (default 4)")
    _add_sweep_arguments(sdc, "trial")
    _add_backend_argument(sdc)
    _add_output_argument(sdc)

    desc = sub.add_parser(
        "describe", help="emit an instance's top-level description")
    desc.add_argument("--buses", type=int, default=3)
    desc.add_argument("--fu-sets", type=int, default=1)
    desc.add_argument("--table", default="cam",
                      choices=api.ALL_TABLE_KINDS)
    desc.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "dot"))

    submit = sub.add_parser(
        "submit", help="enqueue a campaign plan on the service")
    submit.add_argument("--root", required=True, metavar="DIR",
                        help="service spool directory (created if absent)")
    submit.add_argument("--plan", default=None, metavar="JSON",
                        help="full plan document, e.g. "
                             "'{\"kind\": \"table1\", \"entries\": 50}'")
    submit.add_argument("--entries", type=int, default=100)
    submit.add_argument("--packets", type=int, default=12)
    submit.add_argument("--hazards", action="store_true")
    _add_backend_argument(submit)

    serve = sub.add_parser(
        "serve", help="recover and drain the service's queued jobs")
    serve.add_argument("--root", required=True, metavar="DIR",
                       help="service spool directory")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker-pool size per campaign (default 1)")
    serve.add_argument("--heartbeat", type=float, default=30.0,
                       metavar="SECONDS",
                       help="stall deadline: longest tolerated silence "
                            "with zero chunk completions (default 30)")
    serve.add_argument("--job-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock ceiling per job (progress is "
                            "journalled; a resubmit resumes)")
    serve.add_argument("--min-jobs", type=int, default=1, metavar="N",
                       help="pool-degradation floor (default 1)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the shared evaluation cache")
    serve.add_argument("--max-jobs", type=int, default=None, metavar="N",
                       help="execute at most N queued jobs, then exit")
    serve.add_argument("--seed", type=int, default=0,
                       help="backoff-jitter seed")

    jobs = sub.add_parser(
        "jobs", help="list, poll, or fetch service jobs")
    jobs.add_argument("--root", required=True, metavar="DIR",
                      help="service spool directory")
    jobs.add_argument("--poll", default=None, metavar="JOB_ID",
                      help="print one job's point-in-time progress")
    jobs.add_argument("--fetch", default=None, metavar="JOB_ID",
                      help="print a completed job's rendered result")
    _add_output_argument(jobs)

    schaos = sub.add_parser(
        "service-chaos",
        help="service-level chaos campaign (kills, stalls, corruption, "
             "crash/restart)")
    schaos.add_argument("--root", default=None, metavar="DIR",
                        help="scratch directory (default: a fresh "
                             "temporary directory)")
    schaos.add_argument("--entries", type=int, default=10)
    schaos.add_argument("--packets", type=int, default=2)
    schaos.add_argument("--jobs", type=int, default=2, metavar="N")
    schaos.add_argument("--seed", type=int, default=0)
    _add_output_argument(schaos)

    metrics = sub.add_parser(
        "metrics", help="render a metrics snapshot as a table")
    metrics.add_argument("--input", default=None, metavar="PATH",
                         help="read the snapshot from a saved --output "
                              "JSON (its 'metrics' section) instead of "
                              "the live registry")
    metrics.add_argument("--format", dest="fmt", default="text",
                         choices=("text", "json"))
    return parser


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    choices = tuple(backend.name for backend in api.backends()) \
        + (api.BACKEND_AUTO,)
    parser.add_argument("--backend", default=None, choices=choices,
                        help="simulation engine (default: interpreter; "
                             "'compiled' is the bit-identical fast path, "
                             "'auto' picks the fastest)")


def _add_sweep_arguments(parser: argparse.ArgumentParser,
                         item: str) -> None:
    """``--jobs``/``--journal``/``--resume``, shared by every sweep."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help=f"fan {item}s out over N worker processes "
                             f"(default 1; output is byte-identical)")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help=f"crash-safe JSONL journal of every {item}")
    parser.add_argument("--resume", action="store_true",
                        help=f"replay the journal and skip journalled "
                             f"{item}s")


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    _add_sweep_arguments(parser, "evaluation")
    parser.add_argument("--cycle-budget", type=int,
                        default=api.DEFAULT_EVALUATION_MAX_CYCLES,
                        help="per-evaluation cycle deadline (one retry at "
                             "4x before quarantine)")
    parser.add_argument("--hazards", action="store_true",
                        help="attach the TTA hazard detector to every "
                             "simulation and report aggregated counts")


def _add_output_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the result as JSON (to_dict()) "
                             "atomically to PATH")


def _write_json(path: str, payload: dict) -> None:
    """Write a result document, attaching the process metrics snapshot.

    Metrics ride the transport layer rather than the result objects so
    the results themselves stay deterministic (parallel == sequential,
    resume byte-identical); only the serialised document gains the
    observability section.
    """
    if "metrics" not in payload:
        payload = dict(payload)
        payload["metrics"] = api.metrics()
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_resumed(count: int, noun: str, journal: str) -> None:
    if count:
        print(f"(resumed {count} {noun}(s) from {journal})", file=sys.stderr)


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.input:
        with open(args.input, encoding="utf-8") as handle:
            document = json.load(handle)
        snapshot = document.get("metrics", document)
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            print(f"{args.input}: no metrics section found",
                  file=sys.stderr)
            return 2
    else:
        snapshot = api.metrics()
    if args.fmt == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(api.render_metrics(snapshot))
    return 0


def _campaign_options(args: argparse.Namespace) -> dict:
    """The campaign knobs ``table1`` and ``explore`` share."""
    return {"jobs": args.jobs, "journal": args.journal,
            "resume": args.resume, "cycle_budget": args.cycle_budget,
            "hazards": args.hazards, "backend": args.backend}


def _cmd_table1(args: argparse.Namespace) -> int:
    rows, campaign = api.table1_campaign(
        entries=args.entries, packets=args.packets,
        prefixes=args.prefixes, seed=args.seed,
        kinds=api.ALL_TABLE_KINDS if args.kinds == "all"
        else api.TABLE_KINDS,
        **_campaign_options(args))
    text = api.render_table1(rows)
    for failure in campaign.failures:
        text += f"\nquarantined: {failure.render()}"
    print(text)
    # shape_checks self-guards: with an incomplete paper grid it
    # reports that single violation, and extended kinds ride along
    # unconstrained.
    violations = api.shape_checks(rows)
    if args.output:
        _write_json(args.output, api.table1_to_dict(rows, violations))
    if args.hazards:
        print(api.render_hazard_summary(campaign.hazard_counts()))
    _report_resumed(campaign.resumed, "evaluation", args.journal)
    if campaign.failures:
        return 3
    if violations:
        print("\nshape violations:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    print("\nall qualitative shape checks passed")
    return 0


def _cmd_lookup_sweep(args: argparse.Namespace) -> int:
    result = api.lookup_sweep(
        kinds=args.kind, prefix_counts=args.prefixes, lookups=args.lookups,
        seed=args.seed, jobs=args.jobs, journal=args.journal,
        resume=args.resume)
    print(result.render())
    if args.output:
        _write_json(args.output, result.to_dict())
    _report_resumed(result.resumed, "cell", args.journal)
    failed = sum(r["status"] != "ok" for r in result.records)
    return 3 if failed else 0


def _config(args: argparse.Namespace) -> "api.ArchitectureConfiguration":
    return api.ArchitectureConfiguration(
        bus_count=args.buses, matchers=args.fu_sets,
        counters=args.fu_sets, comparators=args.fu_sets,
        table_kind=args.table)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    result = api.evaluate(_config(args), entries=args.entries,
                          hazards=args.hazards, backend=args.backend)
    print(result.summary())
    if args.output:
        _write_json(args.output, result.to_dict())
    if args.hazards and result.run is not None \
            and result.run.hazard_report is not None:
        print(result.run.hazard_report.render())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    outcome, campaign = api.explore_campaign(
        max_area=args.max_area, max_power=args.max_power,
        **_campaign_options(args))
    print(f"evaluations used: {outcome.evaluations_used}")
    if args.output:
        _write_json(args.output, outcome.to_dict())
    _report_resumed(campaign.resumed, "evaluation", args.journal)
    for config in campaign.quarantined:
        print(f"quarantined: {config.describe()}")
    if args.hazards:
        print(api.render_hazard_summary(campaign.hazard_counts()))
    if outcome.best is None:
        print("no configuration satisfies the constraints")
        return 1
    print(f"selected: {outcome.best.summary()}")
    return 0


def _announce_fib(args: argparse.Namespace) -> None:
    """``ripng``/``chaos --prefixes N``: name the FIB the routers get."""
    if args.prefixes:
        print(f"originated {args.prefixes} synthesized routes "
              f"(fib seed {args.fib_seed})")


def _cmd_ripng(args: argparse.Namespace) -> int:
    _announce_fib(args)
    run = api.ripng(topology=args.topology, routers=args.routers,
                    prefixes=args.prefixes, fib_seed=args.fib_seed,
                    capture=args.capture)
    print(run.render())
    if args.output:
        _write_json(args.output, run.to_dict())
    return 0 if run.report.converged else 1


def _parse_flap(spec: str):
    parts = spec.split(":")
    if len(parts) != 4:
        raise FaultInjectionError(
            f"flap spec must be ROUTER:IFACE:DOWN:UP, got {spec!r}")
    router, interface, down_at, up_at = parts
    try:
        return (router, int(interface)), float(down_at), float(up_at)
    except ValueError as exc:
        raise FaultInjectionError(f"bad flap spec {spec!r}: {exc}") from exc


def _cmd_chaos(args: argparse.Namespace) -> int:
    _announce_fib(args)
    try:
        flaps = api.FlapSchedule()
        for spec in args.flap:
            endpoint, down_at, up_at = _parse_flap(spec)
            flaps.flap(endpoint, down_at=down_at, up_at=up_at)
        report = api.run_chaos(
            topology=args.topology, routers=args.routers,
            prefixes=args.prefixes, fib_seed=args.fib_seed,
            seed=args.seed, drop=args.drop, corrupt=args.corrupt,
            duplicate=args.duplicate, reorder=args.reorder,
            latency_steps=args.latency, jitter_steps=args.jitter,
            flaps=flaps, chaos_seconds=args.chaos_seconds)
    except ReproError as exc:
        print(f"chaos scenario failed: {exc}", file=sys.stderr)
        return 2
    print(f"{args.topology} of {args.routers}, seed {args.seed}:")
    print(report.summary())
    if args.output:
        _write_json(args.output, report.to_dict())
    return 0 if report.converged and report.all_tables_agree else 1


def _cmd_sdc(args: argparse.Namespace) -> int:
    common = {"trials": args.trials, "seed": args.seed, "jobs": args.jobs,
              "journal": args.journal, "resume": args.resume}
    if args.prefixes is not None:
        result = api.memory_sdc_sweep(
            kinds=args.table, protections=args.protection,
            prefixes=args.prefixes, lookups=args.lookups, flips=args.flips,
            fib_seed=args.fib_seed, **common)
    else:
        configs = [api.ArchitectureConfiguration(bus_count=buses,
                                                 table_kind=table)
                   for table in args.table or api.TABLE_KINDS
                   for buses in args.buses]
        result = api.sdc_sweep(
            configs, entries=args.entries, packets=args.packets,
            sites=args.site, rate=args.rate, max_faults=args.max_faults,
            backend=args.backend, **common)
    print(result.render())
    if args.output:
        _write_json(args.output, result.to_dict())
    _report_resumed(result.resumed, "trial", args.journal)
    failed = sum(row["failed"] for row in result.rows)
    return 3 if failed else 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    try:
        report = api.conformance(table_kind=args.table,
                                 mac=not args.no_mac,
                                 mutant=args.mutant,
                                 datapath=not args.no_datapath)
    except ReproError as exc:
        print(f"conformance suite failed to run: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    payload = report.to_dict()
    if args.replay:
        try:
            replay_report = api.replay_pcap(args.replay,
                                            table_kind=args.table)
        except (ReproError, OSError) as exc:
            print(f"replay failed: {exc}", file=sys.stderr)
            return 2
        print(replay_report.render())
        payload["replay"] = replay_report.to_dict()
    if args.output:
        _write_json(args.output, payload)
    return 0 if report.passed else 1


def _cmd_assault(args: argparse.Namespace) -> int:
    try:
        report = api.run_assault(topology=args.topology,
                                 routers=args.routers, seed=args.seed,
                                 kinds=args.kind,
                                 attack_rounds=args.rounds,
                                 burst_per_round=args.burst)
    except ReproError as exc:
        print(f"assault failed to run: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.output:
        _write_json(args.output, report.to_dict())
    return 0 if report.passed else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    if args.plan is not None:
        try:
            plan = json.loads(args.plan)
        except ValueError as exc:
            print(f"--plan is not valid JSON: {exc}", file=sys.stderr)
            return 2
    else:
        plan = {"kind": "table1", "entries": args.entries,
                "packets": args.packets, "hazards": args.hazards}
        if args.backend is not None:
            plan["backend"] = args.backend
    service = api.campaign_service(args.root)
    job_id = service.submit(plan)
    print(job_id)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    service = api.campaign_service(
        args.root, jobs=args.jobs, cache=not args.no_cache,
        heartbeat=args.heartbeat, job_timeout=args.job_timeout,
        min_jobs=args.min_jobs, seed=args.seed)
    recovered = service.recover()
    for job_id in recovered:
        print(f"recovered {job_id} (was running; will resume from its "
              f"journal)", file=sys.stderr)
    executed = service.run_pending(max_jobs=args.max_jobs)
    for job in executed:
        print(job.render())
    if not executed:
        print("(queue empty)")
    return 3 if any(job.state != "completed" for job in executed) else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    service = api.campaign_service(args.root)
    if args.poll:
        progress = service.poll(args.poll)
        print(json.dumps(progress, indent=2, sort_keys=True))
        return 0
    if args.fetch:
        document = service.fetch(args.fetch)
        print(document["render"])
        if args.output:
            _write_json(args.output, document)
        return 0
    jobs = service.list_jobs()
    for job in jobs:
        print(job.render())
    if not jobs:
        print("(no jobs)")
    return 0


def _cmd_service_chaos(args: argparse.Namespace) -> int:
    report = api.service_chaos(args.root, entries=args.entries,
                               packets=args.packets, jobs=args.jobs,
                               seed=args.seed)
    print(report.render())
    if args.output:
        _write_json(args.output, report.to_dict())
    return 0 if report.passed else 1


def _cmd_describe(args: argparse.Namespace) -> int:
    print(api.describe(_config(args), fmt=args.fmt), end="")
    return 0


_HANDLERS = {
    "table1": _cmd_table1, "lookup-sweep": _cmd_lookup_sweep,
    "evaluate": _cmd_evaluate, "explore": _cmd_explore,
    "ripng": _cmd_ripng, "conformance": _cmd_conformance,
    "assault": _cmd_assault, "chaos": _cmd_chaos, "sdc": _cmd_sdc,
    "describe": _cmd_describe, "submit": _cmd_submit, "serve": _cmd_serve,
    "jobs": _cmd_jobs, "service-chaos": _cmd_service_chaos,
    "metrics": _cmd_metrics,
}


if __name__ == "__main__":
    sys.exit(main())
