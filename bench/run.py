"""Run the benchmark and print every metric with its spread.

    python3 bench/run.py [--workload NAME ...] [--seed S] [--seconds N]
                         [--trace [0|1]] [--out results.json]

Each rep is one fresh ``python bench/_rep.py <cli argv>`` process. The
parent stamps the spawn and the exit, reaps the child with
``os.wait4`` (so ``ru_maxrss`` covers its pool workers too) and checks
the child's outputs. One discarded warm-up rep per workload fills the
bytecode cache; then reps run round-robin across the chosen workloads,
one at a time, for ``--seconds`` per workload (default: ``run_seconds``
of BENCHMARK.json). A round that would end past that budget is not
started, once three rounds ran. A fixed reference job runs between
reps, and the end-to-end times are scaled to the host speed at which it
takes REFERENCE_S.

With ``--trace`` each round adds traced reps, and the per-layer metrics
are reported instead of the end-to-end ones. Every metric is printed as
``workload metric median q1 q3 n unit`` over its reps; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``, whose values are the medians.
The exit status is 0 only when every rep was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    # Run as a script: import siblings as the ``bench`` package, since
    # bench/ itself on the path would let bench/trace.py shadow the
    # standard library's trace module.
    sys.path[0] = ROOT

from bench import trace as layer_trace  # noqa: E402
from bench.workloads import (  # noqa: E402
    JOURNAL,
    OUTPUT,
    WORKLOADS,
    Workload,
    check,
    load_golden,
    output_digest,
    paper_clock_err_pct,
)

REP = os.path.join(ROOT, "bench", "_rep.py")
PROGRAM = os.path.join(ROOT, "src", "repro", "cli.py")
WORK_DIR = os.path.join(ROOT, ".bench_build")
MIN_ROUNDS = 3
REP_TIMEOUT_S = 60.0

#: reported beside the end-to-end metrics, compared exactly (better =
#: lower): failed reps per attempted rep, and the Table-1 model's error
#: against the paper's published clocks
EXACT_METRICS = {"error_rate": "ratio", "paper_clock_err_pct": "%"}

#: Seconds reference_job() takes on the host the bounds were set on (a
#: 2-vCPU Xeon VM) when nothing else slows it. The end-to-end times are
#: reported at that host speed: each rep's time is scaled by
#: REFERENCE_S over the reference job's time measured around the rep.
REFERENCE_S = 0.085


#: builds and sorts a 200k-entry dict of strings, so that like the
#: workloads it is bound by the interpreter and memory
REFERENCE_JOB = """
import time
start = time.perf_counter()
table = {(i * 7919) % 1000003: str(i) for i in range(200000)}
sorted(table.items(), key=lambda item: item[1])
print(time.perf_counter() - start)
"""


def reference_job() -> float:
    """Seconds the fixed, stdlib-only REFERENCE_JOB takes now.

    A shared host slows everything for minutes at a time, by up to 85%
    as measured, and the guest sees no steal time; the job stretches by
    about as much as a rep. It runs in its own process: a child spawned
    by this one inherits this one's peak RSS in ``ru_maxrss``.
    """
    return float(subprocess.run(
        [sys.executable, "-I", "-S", "-c", REFERENCE_JOB],
        capture_output=True, text=True, check=True).stdout)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@dataclass
class Rep:
    wall_s: float
    setup_s: Optional[float]
    rss_mb: float
    problems: List[str]
    digest: Optional[str] = None
    clock_err_pct: Optional[float] = None
    layers: Optional[Dict[str, float]] = None
    #: mean reference_job() time just before and just after the rep
    reference_s: float = REFERENCE_S

    @property
    def speed(self) -> float:
        """Factor that takes this rep's times to the reference host speed."""
        return REFERENCE_S / self.reference_s


def child_env(cache_dir: str) -> Dict[str, str]:
    """The pinned child environment: no inherited PYTHON*/REPRO_*
    settings, so bytecode is written (to a cache the warm-up rep fills)
    and metrics stay on, as users run the CLI."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "REPRO_"))}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(cache_dir, "pycache"),
               PYTHONHASHSEED="0",
               TMPDIR=cache_dir)
    return env


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return None


def run_rep(workload: Workload, seed: Optional[int], env: Dict[str, str],
            scratch: str, golden: Optional[Dict[str, str]],
            traced: bool = False, jobs: Optional[int] = None) -> Rep:
    """Run one fresh child process and check what it wrote."""
    rep_dir = tempfile.mkdtemp(dir=scratch)
    try:
        stamp = os.path.join(rep_dir, "stamp")
        spans = os.path.join(rep_dir, "spans.json")
        command = [sys.executable, REP, stamp] \
            + (["--trace", spans] if traced else []) \
            + ["--", *workload.argv(seed, rep_dir, jobs)]
        with open(os.path.join(rep_dir, "stdout"), "wb") as out, \
                open(os.path.join(rep_dir, "stderr"), "wb") as err:
            start = time.monotonic()
            child = subprocess.Popen(command, stdout=out, stderr=err,
                                     env=env, cwd=rep_dir,
                                     start_new_session=True)
            watchdog = threading.Timer(
                REP_TIMEOUT_S, os.killpg, (child.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic()
        # reaped by wait4 above, so Popen must be told the status
        child.returncode = os.waitstatus_to_exitcode(status)
        stamped = _read(stamp)
        setup_s = float(stamped) - start if stamped else None
        stdout = _read(os.path.join(rep_dir, "stdout"))
        raw = _read(os.path.join(rep_dir, OUTPUT))
        document = json.loads(raw) if raw else None
        journal = _read(os.path.join(rep_dir, JOURNAL)) \
            if workload.command == "sdc" else None
        digest = output_digest(stdout, document, journal) \
            if document is not None else None
        problems = check(workload, child.returncode, document, digest,
                         golden)
        if child.returncode != 0:
            tail = (_read(os.path.join(rep_dir, "stderr")) or b"")[-400:]
            problems.append(tail.decode(errors="replace").strip())
        elif setup_s is None:
            problems.append("the rep never imported repro.cli")
        rep = Rep(wall_s=end - start, setup_s=setup_s,
                  rss_mb=usage.ru_maxrss / 1024.0, problems=problems,
                  digest=digest)
        if not problems:
            if workload.command == "table1":
                rep.clock_err_pct = paper_clock_err_pct(document)
            if traced:
                with open(spans, encoding="utf-8") as handle:
                    rep.layers = layer_trace.layer_metrics(
                        json.load(handle), rep.wall_s - setup_s)
        return rep
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def measure(workloads: List[Workload], seed: Optional[int], seconds: float,
            traced: bool, env: Dict[str, str],
            scratch: str) -> Dict[str, Dict[str, List[Rep]]]:
    """Warm up, then run reps round-robin for *seconds* per workload;
    returns reps by workload and kind ("plain", "traced", and "layer"
    for the --jobs layer pass)."""
    golden = load_golden() if seed is None else None
    reps = {w.name: {"plain": [], "traced": [], "layer": []}
            for w in workloads}
    for workload in workloads:
        run_rep(workload, seed, env, scratch, golden)
    before = reference_job()

    def rep(workload: Workload, **options) -> Rep:
        nonlocal before
        result = run_rep(workload, seed, env, scratch, golden, **options)
        after = reference_job()
        result.reference_s = (before + after) / 2
        before = after
        return result

    budget = seconds * len(workloads)
    start = time.monotonic()
    rounds = 0
    # start another round only if, at the mean round time so far, it
    # ends within the budget
    while rounds < MIN_ROUNDS \
            or (time.monotonic() - start) * (rounds + 1) / rounds <= budget:
        for workload in workloads:
            mine = reps[workload.name]
            mine["plain"].append(rep(workload))
            if traced:
                mine["traced"].append(rep(workload, traced=True))
                if workload.layer_jobs is not None:
                    mine["layer"].append(rep(workload, traced=True,
                                             jobs=workload.layer_jobs))
        rounds += 1
    return reps


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """Median, q1 and q3 as ``statistics.quantiles(n=4)`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def summarize(values: List[float], unit: str) -> dict:
    """The median and quartiles of one metric's samples."""
    median, q1, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "samples": values}


def end_to_end(workload: Workload, reps: List[Rep],
               units: Dict[str, str]) -> Dict[str, dict]:
    good = [rep for rep in reps if not rep.problems]
    samples = {
        "wall_s": [rep.wall_s * rep.speed for rep in good],
        "setup_s": [rep.setup_s * rep.speed for rep in good],
        "items_per_s": [workload.items
                        / ((rep.wall_s - rep.setup_s) * rep.speed)
                        for rep in good],
        "peak_rss_mb": [rep.rss_mb for rep in good],
    }
    metrics = {name: summarize(samples[name], unit)
               for name, unit in units.items() if samples[name]}
    if good:
        metrics["measured_wall_s"] = summarize(
            [rep.wall_s for rep in good], "s")
        metrics["reference_s"] = summarize(
            [rep.reference_s for rep in good], "s")
    metrics["error_rate"] = summarize(
        [(len(reps) - len(good)) / len(reps)], EXACT_METRICS["error_rate"])
    if workload.command == "table1" and good:
        metrics["paper_clock_err_pct"] = summarize(
            [rep.clock_err_pct for rep in good],
            EXACT_METRICS["paper_clock_err_pct"])
    return metrics


def per_layer(workload: Workload, kinds: Dict[str, List[Rep]],
              units: Dict[str, str], problems: List[str]
              ) -> Dict[str, dict]:
    traced = [rep for rep in kinds["traced"] if not rep.problems]
    layer = [rep for rep in kinds["layer"] if not rep.problems]
    plain = [rep.wall_s * rep.speed for rep in kinds["plain"]
             if not rep.problems]
    metrics = {}
    for name, unit in units.items():
        source = layer if workload.layer_jobs is not None \
            and not name.startswith(layer_trace.POOL_METRICS) else traced
        if name == "trace.overhead_pct":
            if traced and plain:
                values = [100.0 * (statistics.median(
                    [rep.wall_s * rep.speed for rep in traced])
                    / statistics.median(plain) - 1.0)]
            else:
                values = []
        else:
            values = [rep.layers[name] for rep in source]
        if not values:
            continue
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"{workload.name}: count {name} differs across "
                            f"traced reps: {values}")
        metrics[name] = summarize(values, unit)
    return metrics


def machine_info(env: Dict[str, str]) -> dict:
    """CPU, core count, Python, numpy state, load and commit of a run."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy_active = subprocess.run(
        [sys.executable, "-c", "from repro.tta.compiled import "
         "numpy_active; print(numpy_active())"],
        env=env, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy_active": numpy_active == "True",
            "loadavg": list(os.getloadavg()), "commit": commit,
            "bytecode_cache": "written, warmed by one rep per workload",
            "hash_seed": env["PYTHONHASHSEED"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="held-out input seed (default: the commands' "
                             "own defaults, checked against golden.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics from traced reps")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the full result set as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(PROGRAM):
        print(f"run.py: the program is missing ({PROGRAM})", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {metric["name"]: metric["unit"] for metric in
             spec["per_layer" if args.trace else "end_to_end"]}
    workloads = [WORKLOADS[name] for name in args.workload or WORKLOADS]
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]

    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        env = child_env(scratch)
        reps = measure(workloads, args.seed, seconds, bool(args.trace),
                       env, scratch)
        machine = machine_info(env) if args.out else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems: List[str] = []
    results = {}
    for workload in workloads:
        kinds = reps[workload.name]
        for rep in (rep for kind in kinds.values() for rep in kind):
            problems += [f"{workload.name}: {p}" for p in rep.problems]
        results[workload.name] = per_layer(workload, kinds, units, problems) \
            if args.trace else end_to_end(workload, kinds["plain"], units)

    print("# workload metric median q1 q3 n unit")
    for name, metrics in results.items():
        for metric, stats in metrics.items():
            print(f"{name} {metric} " + " ".join(
                f"{stats[key]:.6g}" for key in ("median", "q1", "q3"))
                + f" {stats['n']} {stats['unit']}")
    for problem in problems[:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"machine": machine, "seed": args.seed,
                       "trace": bool(args.trace), "seconds": seconds,
                       "workloads": results}, handle, indent=1)
            handle.write("\n")

    all_reps = [rep for kinds in reps.values() for kind in kinds.values()
                for rep in kind]
    single = len(workloads) == 1
    print(json.dumps({
        "correct": not problems,
        "attempted": len(all_reps),
        "failed": sum(bool(rep.problems) for rep in all_reps),
        "metrics": {(metric if single else f"{name}/{metric}"):
                    {"value": stats["median"], "unit": stats["unit"]}
                    for name, metrics in results.items()
                    for metric, stats in metrics.items()
                    if metric in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
