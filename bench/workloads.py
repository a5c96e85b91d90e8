"""The benchmark's workloads: CLI argv, work per rep, and output checks.

Each workload is one ``taco-explore`` command line. Without a seed it
runs the command's own defaults, and its outputs must match the pinned
SHA-256 in ``golden.json``. With a seed (a held-out input), the outputs
must satisfy per-command invariants instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
OUTPUT = "out.json"
JOURNAL = "journal.jsonl"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    args: Tuple[str, ...]
    #: work one rep completes: Table-1 rows, sweep cells or trials
    items: int
    item: str
    #: --jobs of one extra traced pass per round, so that layers that
    #: otherwise run only in pool workers run in the traced process
    layer_jobs: Optional[int] = None

    def argv(self, seed: Optional[int], rep_dir: str,
             jobs: Optional[int] = None) -> List[str]:
        args = list(self.args)
        if jobs is not None:
            args[args.index("--jobs") + 1] = str(jobs)
        if seed is not None:
            args += _SEED_ARGS[self.command](seed)
        if self.command == "sdc":
            args += ["--journal", os.path.join(rep_dir, JOURNAL)]
        return [self.command, *args, "--output", os.path.join(rep_dir, OUTPUT)]


# The paper's Table 1 has fixed inputs; a seed swaps in a synthesized
# 100-prefix FIB so that the table1 workloads can be held out too.
_SEED_ARGS = {
    "table1": lambda seed: ["--prefixes", "100", "--seed", str(seed)],
    "lookup-sweep": lambda seed: ["--seed", str(seed)],
    "sdc": lambda seed: ["--seed", str(seed), "--fib-seed", str(seed)],
}

# The FIB sizes keep every rep near one second, so that a run of
# run_seconds holds enough reps for its median to ride out a slow phase
# of a shared host.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table1-interp", "table1", ("--backend", "interpreter"),
             items=9, item="row"),
    Workload("table1-compiled", "table1", ("--backend", "compiled"),
             items=9, item="row"),
    Workload("fib-build", "lookup-sweep",
             ("--prefixes", "1000", "2000", "8000", "--lookups", "500"),
             items=15, item="cell"),
    Workload("fib-lookup", "lookup-sweep",
             ("--prefixes", "4000", "--lookups", "20000"),
             items=5, item="cell"),
    Workload("fib-faults", "sdc", ("--prefixes", "300", "--jobs", "2"),
             items=168, item="trial", layer_jobs=1),
)}


def work_done(command: str, document: dict) -> int:
    """Items a rep completed: measured rows, ok cells or ok trials."""
    if command == "table1":
        return sum(row.get("measured") is not None
                   for row in document["rows"])
    entries = document["cells"] if command == "lookup-sweep" \
        else document["records"]
    return sum(entry["status"] == "ok" for entry in entries)


def _sweep_problems(document: dict) -> List[str]:
    """All five kinds must agree on route count and hit rate per size."""
    answers: Dict[int, set] = {}
    for cell in document["cells"]:
        if cell["status"] == "ok":
            answers.setdefault(cell["prefix_count"], set()).add(
                (cell["route_count"], cell["hit_rate"]))
    return [f"table kinds disagree at {count} prefixes: {sorted(seen)}"
            for count, seen in sorted(answers.items()) if len(seen) > 1]


def _sdc_problems(document: dict) -> List[str]:
    """A protected table never lets a lookup crash."""
    return [f"{row['kind']}/{row['protection']}: "
            f"{row['outcomes']['crash']} crash outcome(s)"
            for row in document["rows"]
            if row["protection"] != "none" and row["outcomes"]["crash"]]


_INVARIANTS = {
    "table1": lambda document: [],
    "lookup-sweep": _sweep_problems,
    "sdc": _sdc_problems,
}


def output_digest(stdout: bytes, document: dict,
                  journal: Optional[bytes]) -> str:
    """SHA-256 of stdout, the --output document without its wall-clock
    ``metrics`` section (canonical JSON), and the journal if any."""
    body = {key: value for key, value in document.items()
            if key != "metrics"}
    digest = hashlib.sha256(stdout)
    digest.update(json.dumps(body, sort_keys=True).encode())
    if journal is not None:
        digest.update(journal)
    return digest.hexdigest()


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(workload: Workload, exit_code: int, document: Optional[dict],
          digest: Optional[str],
          golden: Optional[Dict[str, str]]) -> List[str]:
    """Everything wrong with one rep's outputs (empty = correct).

    *golden* maps workloads to pinned digests; pass it for reps at the
    default inputs and None for held-out seeds."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if document is None:
        return ["no --output document"]
    problems = _INVARIANTS[workload.command](document)
    done = work_done(workload.command, document)
    if done != workload.items:
        problems.append(f"{done} {workload.item}(s) completed, "
                        f"expected {workload.items}")
    if golden is not None and digest != golden.get(workload.name):
        problems.append(f"output digest {digest[:16]}... does not match "
                        f"golden.json")
    return problems


def paper_clock_err_pct(document: dict) -> Optional[float]:
    """Median over the Table-1 rows of |measured/paper clock - 1| in %."""
    ratios = [row["clock_ratio_vs_paper"] for row in document.get("rows", ())
              if row.get("clock_ratio_vs_paper") is not None]
    if not ratios:
        return None
    return statistics.median(abs(ratio - 1.0) * 100.0 for ratio in ratios)
