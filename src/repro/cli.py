"""``taco-explore``: command-line front end for the evaluation flows.

Each subcommand is one :class:`Command` in :data:`COMMANDS` (``taco-explore
--help`` lists them): the :mod:`repro.api` function it calls, its help
text, its options and its report. Each option is passed as one keyword
of that function (or of the entry's ``build`` or ``report`` helper), and
it spells no default: the parser reads it from the function's keyword
defaults, so a default appears here only where the command line's
differs. One generic path, :func:`_run`, does the rest for every entry:
it calls the function, prints the report, writes ``--output``, reports
resumed journal items and returns the exit status. :func:`main` is the
one error boundary.

Exit status: 0 ok; 1 a check failed (Table 1's shape checks, convergence,
a conformance, chaos or assault verdict); 2 a usage or input error, one
line on stderr and never a traceback; 3 an item of a sweep, or a service
job, failed.

``table1`` and ``explore`` always run on one campaign runner, which
journals with ``--journal`` (resume with ``--resume``) and fans out over
a process pool with ``--jobs N``; stdout, ``--output`` and the journal
are byte-identical at every job count. ``--hazards`` attaches the TTA
hazard detector to every simulation.
``--backend interpreter|compiled|auto`` (on ``table1``/``evaluate``/
``explore``/``submit``) selects the simulation engine; the
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
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, \
    Tuple

from repro import api
from repro.api import write_atomic
from repro.errors import FaultInjectionError, ReproError

#: what a report returns: the text to print, the ``--output`` document
#: (``None``: nothing to write) and the exit status
Report = Tuple[str, Optional[dict], int]


class Option(NamedTuple):
    """One command-line option and the keyword its value is passed as.

    ``spec`` holds the ``add_argument`` settings. Without a ``default``
    there, the parser takes the keyword's default from the command's
    functions (a ``store_true`` flag is off unless given). ``convert``
    turns the parsed value into the keyword's value.
    """

    flag: str
    keyword: str
    spec: Dict[str, Any]
    convert: Optional[Callable[[Any], Any]] = None


def _opt(flag: str, keyword: str = "",
         convert: Optional[Callable[[Any], Any]] = None, **spec) -> Option:
    """*flag*'s option; its keyword defaults to the flag's own name."""
    return Option(flag, keyword or _dest(flag), spec, convert)


def _dest(flag: str) -> str:
    """The attribute argparse stores *flag*'s value under."""
    return flag.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """One subcommand.

    ``functions`` names the :mod:`repro.api` functions its options feed:
    the first is called, or the second when the ``switch`` keyword has a
    value. Each is called with the option values it takes as keywords.
    ``build(**values)`` returns keywords made from several options (a
    configuration). ``report(result, **values)`` returns a
    :data:`Report`; a service command's report also drives the service
    it is handed. ``item`` names what a resumed journal skipped;
    ``failure`` prefixes the one stderr line of a failed run.
    """

    functions: Tuple[str, ...]
    help: str
    options: Tuple[Option, ...]
    report: Callable[..., Report]
    build: Optional[Callable[..., Dict[str, Any]]] = None
    switch: str = ""
    item: str = ""
    failure: str = ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    command = COMMANDS[args.command]
    try:
        return _run(command, args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"{command.failure or args.command + ' failed'}: {exc}",
              file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taco-explore",
        description="TACO protocol-processor evaluation for IPv6 routing")
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for option in command.options:
            spec = dict(option.spec)
            if "default" not in spec and spec.get("action") != "store_true":
                spec.update(_api_default(command, option.keyword))
            subparser.add_argument(option.flag, **spec)
    return parser


def _api_default(command: Command, keyword: str) -> Dict[str, Any]:
    """``{"default": value}`` from the first of *command*'s functions
    that has a default for *keyword*, else ``{}``."""
    functions = [getattr(api, name) for name in command.functions]
    for function in functions + [command.build]:
        defaults = getattr(function, "__kwdefaults__", None) or {}
        if keyword in defaults:
            return {"default": defaults[keyword]}
    return {}


def _parameters(function: Callable) -> Tuple[str, ...]:
    """The names *function* takes as keywords (``**`` catch-alls aside)."""
    code = function.__code__
    return code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]


def _run(command: Command, args: argparse.Namespace) -> int:
    values = {}
    for option in command.options:
        value = getattr(args, _dest(option.flag))
        values[option.keyword] = option.convert(value) \
            if option.convert else value
    if command.build is not None:
        values.update(command.build(**values))
    name = command.functions[0]
    if command.switch and values[command.switch] is not None:
        name = command.functions[1]
    function = getattr(api, name)
    result = function(**{keyword: value for keyword, value in values.items()
                         if keyword in _parameters(function)})
    text, document, status = command.report(result, **values)
    print(text)
    if document is not None and values.get("output"):
        _write_json(values["output"], document)
    if command.item:
        campaign = result[-1] if isinstance(result, tuple) else result
        if campaign.resumed:
            print(f"(resumed {campaign.resumed} {command.item}(s) from "
                  f"{values['journal']})", file=sys.stderr)
    return status


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


# -- reports ------------------------------------------------------------------


def _rendered(ok: Callable[[Any], bool],
              failed: int = 1) -> Callable[..., Report]:
    """The plain report: ``render()``, ``to_dict()``, and *failed*
    unless ``ok(result)``."""
    return lambda result, **_: (result.render(), result.to_dict(),
                                0 if ok(result) else failed)


def _hazard_lines(campaign, hazards: bool) -> list:
    return [api.render_hazard_summary(campaign.hazard_counts())] \
        if hazards else []


def _table1(result, *, hazards: bool, **_) -> Report:
    rows, campaign = result
    # shape_checks self-guards: with an incomplete paper grid it reports
    # that single violation, and extended kinds ride along unconstrained
    violations = api.shape_checks(rows)
    lines = [api.render_table1(rows)]
    lines += [f"quarantined: {failure.render()}"
              for failure in campaign.failures]
    lines += _hazard_lines(campaign, hazards)
    if campaign.failures:
        status = 3
    elif violations:
        lines += ["\nshape violations:"]
        lines += [f"  - {violation}" for violation in violations]
        status = 1
    else:
        lines += ["\nall qualitative shape checks passed"]
        status = 0
    return "\n".join(lines), api.table1_to_dict(rows, violations), status


def _explore(result, *, hazards: bool, **_) -> Report:
    outcome, campaign = result
    lines = [f"evaluations used: {outcome.evaluations_used}"]
    lines += [f"quarantined: {config.describe()}"
              for config in campaign.quarantined]
    lines += _hazard_lines(campaign, hazards)
    if outcome.best is None:
        lines += ["no configuration satisfies the constraints"]
    else:
        lines += [f"selected: {outcome.best.summary()}"]
    return "\n".join(lines), outcome.to_dict(), int(outcome.best is None)


def _evaluate(result, *, hazards: bool, **_) -> Report:
    text = result.summary()
    if hazards and result.run is not None \
            and result.run.hazard_report is not None:
        text += "\n" + result.run.hazard_report.render()
    return text, result.to_dict(), 0


def _fib_note(prefixes: Optional[int], fib_seed: int) -> str:
    """``ripng``/``chaos --prefixes N``: name the FIB the routers got."""
    return (f"originated {prefixes} synthesized routes "
            f"(fib seed {fib_seed})\n") if prefixes else ""


def _ripng(run, *, prefixes: Optional[int], fib_seed: int, **_) -> Report:
    return (_fib_note(prefixes, fib_seed) + run.render(), run.to_dict(),
            0 if run.report.converged else 1)


def _chaos(report, *, topology: str, routers: int, seed: int,
           prefixes: Optional[int], fib_seed: int, **_) -> Report:
    text = (_fib_note(prefixes, fib_seed)
            + f"{topology} of {routers}, seed {seed}:\n" + report.summary())
    return text, report.to_dict(), \
        0 if report.converged and report.all_tables_agree else 1


def _conformance(report, *, replay: Optional[str], table_kind: str,
                 **_) -> Report:
    text, document = report.render(), report.to_dict()
    if replay:
        replayed = api.replay_pcap(replay, table_kind=table_kind)
        text += "\n" + replayed.render()
        document["replay"] = replayed.to_dict()
    return text, document, 0 if report.passed else 1


def _describe(text: str, **_) -> Report:
    return text.removesuffix("\n"), None, 0


def _submit(service, *, plan: Optional[dict], **values) -> Report:
    if plan is None:
        plan = {keyword: value for keyword, value in values.items()
                if keyword in _parameters(api.table1_campaign)}
    return service.submit(plan), None, 0


def _serve(service, *, max_jobs: Optional[int], **_) -> Report:
    for job_id in service.recover():
        print(f"recovered {job_id} (was running; will resume from its "
              f"journal)", file=sys.stderr)
    executed = service.run_pending(max_jobs=max_jobs)
    text = "\n".join(job.render() for job in executed) or "(queue empty)"
    return text, None, \
        3 if any(job.state != "completed" for job in executed) else 0


def _jobs(service, *, poll: Optional[str], fetch: Optional[str],
          **_) -> Report:
    if poll:
        return json.dumps(service.poll(poll), indent=2, sort_keys=True), \
            None, 0
    if fetch:
        document = service.fetch(fetch)
        return document["render"], document, 0
    text = "\n".join(job.render() for job in service.list_jobs())
    return text or "(no jobs)", None, 0


def _metrics(snapshot: dict, *, path: Optional[str], fmt: str,
             **_) -> Report:
    if path:
        with open(path, encoding="utf-8") as handle:
            document = _parse_json(handle.read(), path)
        snapshot = document.get("metrics", document) \
            if isinstance(document, dict) else None
        if not isinstance(snapshot, dict) or "counters" not in snapshot:
            raise ValueError(f"{path}: no metrics section found")
    text = json.dumps(snapshot, indent=2, sort_keys=True) \
        if fmt == "json" else api.render_metrics(snapshot)
    return text, None, 0


# -- builders and converters --------------------------------------------------


def _parse_json(text: str, source: str) -> Any:
    """*text* as JSON; a parse error names where the text came from."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{source} is not valid JSON: {exc}") from None


def _config(*, buses: int = 1, fu_sets: int = 1, table: str = "sequential",
            **_) -> Dict[str, Any]:
    """``evaluate``/``describe``: the one configuration they run."""
    return {"config": api.ArchitectureConfiguration(
        bus_count=buses, matchers=fu_sets, counters=fu_sets,
        comparators=fu_sets, table_kind=table)}


def _datapath_configs(*, kinds: Optional[Sequence[str]],
                      buses: Sequence[int], prefixes: Optional[int],
                      **_) -> Dict[str, Any]:
    """``sdc`` without ``--prefixes``: every table kind at every bus
    count."""
    if prefixes is not None:
        return {}
    return {"configs": [
        api.ArchitectureConfiguration(bus_count=count, table_kind=kind)
        for kind in kinds or api.TABLE_KINDS for count in buses]}


def _flap_schedule(specs: Sequence[str]):
    """``--flap ROUTER:IFACE:DOWN:UP`` values as one flap schedule."""
    flaps = api.FlapSchedule()
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 4:
            raise FaultInjectionError(
                f"flap spec must be ROUTER:IFACE:DOWN:UP, got {spec!r}")
        router, interface, down_at, up_at = parts
        try:
            endpoint = (router, int(interface))
            window = {"down_at": float(down_at), "up_at": float(up_at)}
        except ValueError as exc:
            raise FaultInjectionError(
                f"bad flap spec {spec!r}: {exc}") from exc
        flaps.flap(endpoint, **window)
    return flaps


def _flag_off(given: bool) -> bool:
    """A ``--no-*`` flag's value for the keyword it switches off."""
    return not given


# -- shared options -----------------------------------------------------------

_OUTPUT = _opt("--output", metavar="PATH",
               help="write the result as JSON (to_dict()) atomically to PATH")
_BACKEND = _opt("--backend", choices=api.backends() + (api.BACKEND_AUTO,),
                help="simulation engine (default: interpreter; 'compiled' "
                     "is the bit-identical fast path, 'auto' picks the "
                     "fastest)")
_TOPOLOGY = _opt("--topology", choices=("line", "ring"))
_FIB_SEED = _opt("--fib-seed", type=int,
                 help="FIB synthesis seed for --prefixes "
                      "(default %(default)s)")


def _sweep(item: str) -> Tuple[Option, ...]:
    """``--jobs``/``--journal``/``--resume``, shared by every sweep."""
    return (
        _opt("--jobs", type=int, metavar="N",
             help=f"fan {item}s out over N worker processes "
                  f"(default %(default)s; output is byte-identical)"),
        _opt("--journal", metavar="PATH",
             help=f"crash-safe JSONL journal of every {item}"),
        _opt("--resume", action="store_true",
             help=f"replay the journal and skip journalled {item}s"))


_CAMPAIGN = _sweep("evaluation") + (
    _opt("--cycle-budget", type=int,
         default=api.DEFAULT_EVALUATION_MAX_CYCLES,
         help="per-evaluation cycle deadline (one retry at 4x before "
              "quarantine)"),
    _opt("--hazards", action="store_true",
         help="attach the TTA hazard detector to every simulation and "
              "report aggregated counts"))

# -- the commands -------------------------------------------------------------

COMMANDS: Dict[str, Command] = {
    "table1": Command(
        ("table1_campaign",), "regenerate the paper's Table 1", (
            _opt("--entries", type=int,
                 help="routing table size (default %(default)s)"),
            _opt("--prefixes", type=int, metavar="N",
                 help="replace the paper workload with a synthesized "
                      "BGP-shaped FIB of N prefixes (repro.workload.fib)"),
            _opt("--kinds", default="paper", choices=("paper", "all"),
                 convert=lambda kinds: api.ALL_TABLE_KINDS
                 if kinds == "all" else api.TABLE_KINDS,
                 help="'paper' = the published three table options; "
                      "'all' adds multibit-trie and Bloom rows"),
            _opt("--seed", type=int,
                 help="FIB synthesis seed for --prefixes"),
            _opt("--packets", type=int,
                 help="measurement batch size (default %(default)s)"),
            _BACKEND, *_CAMPAIGN, _OUTPUT),
        _table1, item="evaluation"),
    "lookup-sweep": Command(
        ("lookup_sweep",),
        "scaling sweep: every table kind at 10^2..10^6 prefixes", (
            _opt("--kind", "kinds", action="append",
                 choices=api.ALL_TABLE_KINDS,
                 help="table kind to sweep (repeatable; default: all "
                      "five)"),
            _opt("--prefixes", "prefix_counts", type=int, nargs="+",
                 metavar="N",
                 help="FIB sizes to sweep (default: 100 1000 10000 100000 "
                      "1000000)"),
            _opt("--lookups", type=int, metavar="N",
                 help="Zipf-skewed probe addresses per cell (default "
                      "2000)"),
            _opt("--seed", type=int,
                 help="root seed (sweeps replay bit-for-bit)"),
            *_sweep("cell"), _OUTPUT),
        _rendered(lambda result: all(record["status"] == "ok"
                                     for record in result.records),
                  failed=3),
        item="cell"),
    "evaluate": Command(
        ("evaluate",), "evaluate one configuration", (
            _opt("--buses", type=int),
            _opt("--fu-sets", type=int,
                 help="matcher/counter/comparator count"),
            _opt("--table", choices=api.ALL_TABLE_KINDS),
            _opt("--entries", type=int),
            _opt("--hazards", action="store_true",
                 help="attach the hazard detector and print its report"),
            _BACKEND, _OUTPUT),
        _evaluate, build=_config),
    "explore": Command(
        ("explore_campaign",), "heuristic design-space exploration", (
            _opt("--max-power", type=float, help="power budget in watts"),
            _opt("--max-area", type=float, help="area budget in mm^2"),
            _BACKEND, *_CAMPAIGN, _OUTPUT),
        _explore, item="evaluation"),
    "ripng": Command(
        ("ripng",), "RIPng convergence simulation", (
            _TOPOLOGY,
            _opt("--routers", type=int),
            _opt("--prefixes", type=int, metavar="N",
                 help="originate a synthesized N-prefix BGP-shaped FIB "
                      "across the routers before converging"),
            _FIB_SEED,
            _opt("--capture", metavar="PATH",
                 help="tap every link and write the run's frames as a "
                      "classic pcap (replayable via 'conformance "
                      "--replay')"),
            _OUTPUT),
        _ripng),
    "conformance": Command(
        ("conformance",), "table-driven forwarding conformance suite", (
            _opt("--table", "table_kind",
                 choices=("sequential", "tree", "balanced-tree", "cam",
                          "multibit-trie", "trie", "bloom"),
                 help="routing-table implementation under test ('tree' is "
                      "an alias for 'balanced-tree', 'trie' for "
                      "'multibit-trie')"),
            _opt("--no-mac", "mac", action="store_true", convert=_flag_off,
                 help="skip the link-layer (my-station / MAC rewrite) "
                      "cases"),
            _opt("--no-datapath", "datapath", action="store_true",
                 convert=_flag_off,
                 help="skip the TTA-vs-golden datapath cross-check"),
            _opt("--mutant",
                 help="run against a deliberately broken router or program "
                      "(the suite must fail); one of: no-decrement, "
                      "forward-expired, no-icmp, wrong-interface, "
                      "program-no-decrement"),
            _opt("--replay", metavar="PATH",
                 help="also replay a classic pcap through the fixture, "
                      "with per-packet latency percentiles in the metrics "
                      "section"),
            _OUTPUT),
        _conformance),
    "assault": Command(
        ("run_assault",), "adversarial RIPng campaign against a victim", (
            _TOPOLOGY,
            _opt("--routers", type=int),
            _opt("--seed", type=int,
                 help="attack seed (campaigns replay bit-for-bit)"),
            _opt("--kind", "kinds", action="append",
                 choices=("malformed", "martian", "spoofed-next-hop",
                          "withdrawal", "oversized"),
                 help="attack kind to inject (repeatable; default: all "
                      "five)"),
            _opt("--rounds", "attack_rounds", type=int,
                 help="attack rounds (default %(default)s)"),
            _opt("--burst", "burst_per_round", type=int,
                 help="hostile datagrams per round (default %(default)s)"),
            _OUTPUT),
        _rendered(lambda report: report.passed)),
    "chaos": Command(
        ("run_chaos",), "seeded fault-injection / resilience scenario", (
            _TOPOLOGY,
            _opt("--routers", type=int),
            _opt("--prefixes", type=int, metavar="N",
                 help="originate a synthesized N-prefix FIB across the "
                      "routers before the chaos phase"),
            _FIB_SEED,
            _opt("--seed", type=int,
                 help="scenario seed (runs replay bit-for-bit)"),
            _opt("--drop", type=float,
                 help="per-frame drop probability on every link"),
            _opt("--corrupt", type=float,
                 help="per-frame single-bit-flip probability"),
            _opt("--duplicate", type=float,
                 help="per-frame duplication probability"),
            _opt("--reorder", type=float,
                 help="per-frame reordering probability"),
            _opt("--latency", "latency_steps", type=int,
                 help="fixed link latency in simulation steps"),
            _opt("--jitter", "jitter_steps", type=int,
                 help="uniform 0..N extra latency steps"),
            _opt("--chaos-seconds", type=float,
                 help="chaos phase duration (default %(default)g)"),
            _opt("--flap", "flaps", action="append", default=[],
                 metavar="ROUTER:IFACE:DOWN:UP", convert=_flap_schedule,
                 help="flap a link, e.g. r1:1:60:320 (repeatable)"),
            _OUTPUT),
        _chaos, failure="chaos scenario failed"),
    "sdc": Command(
        ("sdc_sweep", "memory_sdc_sweep"),
        "soft-error (SDC) vulnerability sweep: datapath bit flips by "
        "default, stored-FIB (memory-state) flips with --prefixes", (
            _opt("--table", "kinds", action="append",
                 choices=api.ALL_TABLE_KINDS,
                 help="routing-table kind to sweep (repeatable; datapath "
                      "default: sequential/balanced-tree/cam; memory "
                      "default: all five)"),
            _opt("--prefixes", type=int, default=None, metavar="N",
                 help="switch to the memory-state sweep: strike stored-FIB "
                      "bits of tables loaded with a synthesized N-prefix "
                      "FIB (repro.workload.fib)"),
            _opt("--protection", "protections", action="append",
                 choices=("none", "parity", "checksum"),
                 help="integrity-protection mode for the memory sweep "
                      "(repeatable; default: all three)"),
            _opt("--lookups", type=int,
                 help="Zipf probe addresses per memory trial (default "
                      "%(default)s)"),
            _opt("--flips", type=int,
                 help="stored bits flipped per memory trial (default "
                      "%(default)s)"),
            _FIB_SEED,
            _opt("--buses", type=int, nargs="+", default=[1, 2, 3],
                 metavar="N", help="bus counts to sweep (default 1 2 3)"),
            _opt("--site", "sites", action="append",
                 choices=("bus", "operand", "trigger", "result", "socket"),
                 help="fault site to inject at (repeatable; default: all "
                      "five)"),
            _opt("--trials", type=int,
                 help="injection trials per (config, site) (default "
                      "%(default)s)"),
            _opt("--rate", type=float,
                 help="per-transport fault probability (default "
                      "%(default)s)"),
            _opt("--seed", type=int,
                 help="root seed (sweeps replay bit-for-bit)"),
            _opt("--max-faults", type=int, metavar="N",
                 help="cap applied faults per trial (e.g. 1 for "
                      "single-event-upset studies)"),
            _opt("--entries", type=int,
                 help="routing table size (default %(default)s)"),
            _opt("--packets", type=int,
                 help="measurement batch size (default %(default)s)"),
            *_sweep("trial"), _OUTPUT),
        _rendered(lambda result: not any(row["failed"]
                                         for row in result.rows),
                  failed=3),
        build=_datapath_configs, switch="prefixes", item="trial"),
    "describe": Command(
        ("describe",), "emit an instance's top-level description", (
            _opt("--buses", type=int, default=3),
            _opt("--fu-sets", type=int),
            _opt("--table", default="cam", choices=api.ALL_TABLE_KINDS),
            _opt("--format", "fmt", choices=("text", "dot"))),
        _describe, build=_config),
    "submit": Command(
        ("campaign_service", "table1_campaign"),
        "enqueue a campaign plan on the service", (
            _opt("--root", required=True, metavar="DIR",
                 help="service spool directory (created if absent)"),
            _opt("--plan", metavar="JSON",
                 convert=lambda text: None if text is None
                 else _parse_json(text, "--plan"),
                 help="full plan: keywords of api.table1_campaign, e.g. "
                      "'{\"entries\": 50, \"prefixes\": 1000}'"),
            _opt("--entries", type=int),
            _opt("--packets", type=int),
            _opt("--hazards", action="store_true"),
            _BACKEND),
        _submit),
    "serve": Command(
        ("campaign_service",),
        "recover and drain the service's queued jobs", (
            _opt("--root", required=True, metavar="DIR",
                 help="service spool directory"),
            _opt("--jobs", type=int, metavar="N",
                 help="worker-pool size per campaign (default "
                      "%(default)s)"),
            _opt("--heartbeat", type=float, metavar="SECONDS",
                 help="floor of the stall deadline, the longest tolerated "
                      "silence with zero chunk completions (default "
                      "%(default)s)"),
            _opt("--job-timeout", type=float, metavar="SECONDS",
                 help="wall-clock ceiling per job (progress is journalled; "
                      "a resubmit resumes)"),
            _opt("--min-jobs", type=int, metavar="N",
                 help="pool-degradation floor (default %(default)s)"),
            _opt("--no-cache", "cache", action="store_true",
                 convert=_flag_off,
                 help="disable the shared evaluation cache"),
            _opt("--max-jobs", type=int, metavar="N",
                 help="execute at most N queued jobs, then exit"),
            _opt("--seed", type=int, help="backoff-jitter seed")),
        _serve),
    "jobs": Command(
        ("campaign_service",), "list, poll, or fetch service jobs", (
            _opt("--root", required=True, metavar="DIR",
                 help="service spool directory"),
            _opt("--poll", metavar="JOB_ID",
                 help="print one job's point-in-time progress"),
            _opt("--fetch", metavar="JOB_ID",
                 help="print a completed job's rendered result"),
            _OUTPUT),
        _jobs),
    "service-chaos": Command(
        ("service_chaos",),
        "service-level chaos campaign (kills, stalls, corruption, "
        "crash/restart)", (
            _opt("--root", metavar="DIR",
                 help="scratch directory (default: a fresh temporary "
                      "directory)"),
            _opt("--entries", type=int),
            _opt("--packets", type=int),
            _opt("--jobs", type=int, metavar="N"),
            _opt("--seed", type=int),
            _OUTPUT),
        _rendered(lambda report: report.passed)),
    "metrics": Command(
        ("metrics",), "render a metrics snapshot as a table", (
            _opt("--input", "path", metavar="PATH",
                 help="read the snapshot from a saved --output JSON (its "
                      "'metrics' section) instead of the live registry"),
            _opt("--format", "fmt", default="text",
                 choices=("text", "json"))),
        _metrics),
}


if __name__ == "__main__":
    sys.exit(main())
