"""Compare two benchmark result sets, workload by workload.

    python3 bench/compare.py PARENT.json CHANGE.json
    python3 bench/compare.py results/BENCH_11.json   # one file, two sets

A result set is what ``run.py --out`` writes; a file may also hold a
list of sets under ``"sets"``. The first set is the parent, the second
the change. For every (workload, end-to-end metric) pair the tool prints
each side's median and quartiles over its reps and one verdict:

* ``unresolved`` - the parent's interquartile range is wider than the
  metric's bound, so the data cannot tell, unless every change rep
  reads better than every parent rep;
* ``worse`` - the change's median is worse than the parent's by more
  than the bound;
* ``improved`` - the change wins at least nine tenths of the rep pairs
  and the medians differ by more than the parent's interquartile range;
* ``unchanged`` - none of these.

``error_rate`` and ``paper_clock_err_pct`` are compared exactly. The
exit status is 1 if any pair is worse or missing, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

if not __package__:  # run as a script: import siblings as ``bench.*``
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.run import EXACT_METRICS, load_spec, quartiles  # noqa: E402


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """The choosing-metrics section 8 verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0

    def worse(a: float, b: float) -> bool:
        return sign * (a - b) > 0

    parent_median, q1, q3 = quartiles(parent)
    change_median = statistics.median(change)
    if bound == 0:
        if change_median == parent_median:
            return "unchanged"
        return "worse" if worse(change_median, parent_median) else "improved"
    spread = q3 - q1
    scale = abs(parent_median)
    dominates = all(worse(p, c) for p in parent for c in change)
    if spread > bound * scale and not dominates:
        return "unresolved"
    if sign * (change_median - parent_median) > bound * scale:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(worse(p, c) for p, c in pairs)
    if wins >= 0.9 * len(pairs) \
            and abs(change_median - parent_median) > spread:
        return "improved"
    return "unchanged"


def load_sets(paths: Sequence[str]) -> List[dict]:
    sets: List[dict] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        sets += document["sets"] if "sets" in document else [document]
    return sets


def compare(parent: dict, change: dict, spec: dict) -> List[List[str]]:
    """One row per (workload, metric): name, both sides, verdict."""
    rules: Dict[str, Tuple[str, float]] = {
        metric["name"]: (metric["better"], metric["bound"])
        for metric in spec["end_to_end"]}
    rules.update({name: ("lower", 0.0) for name in EXACT_METRICS})
    rows = []
    for workload, metrics in parent["workloads"].items():
        for name, (better, bound) in rules.items():
            if name not in metrics:
                continue
            mine = change["workloads"].get(workload, {}).get(name)
            theirs = metrics[name]["samples"]
            if mine is None:
                rows.append([workload, name, _describe(theirs), "-",
                             "missing"])
                continue
            rows.append([workload, name, _describe(theirs),
                         _describe(mine["samples"]),
                         verdict(theirs, mine["samples"], better, bound)])
    return rows


def _describe(values: Sequence[float]) -> str:
    median, q1, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: Sequence[str]) -> int:
    sets = load_sets(argv) if len(argv) in (1, 2) else []
    if len(sets) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(sets[0], sets[1], load_spec())
    header = ["workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "verdict"]
    widths = [max(len(row[i]) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] in ("worse", "missing") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
