"""Regenerate golden.json: one output digest per workload.

    python3 bench/pin_golden.py

Runs every workload twice at its default inputs, requires both reps to
pass the invariants and to agree, and writes their digest. Re-pin only
for a change that is meant to alter what a workload outputs, and say so
in that change.
"""

import json
import os
import shutil
import sys
import tempfile

if not __package__:  # run as a script: import siblings as ``bench.*``
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.run import WORK_DIR, child_env, run_rep  # noqa: E402
from bench.workloads import GOLDEN_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pin-", dir=WORK_DIR)
    golden = {}
    try:
        env = child_env(scratch)
        for workload in WORKLOADS.values():
            reps = [run_rep(workload, None, env, scratch, None)
                    for _ in range(2)]
            problems = [p for rep in reps for p in rep.problems]
            if problems or reps[0].digest != reps[1].digest:
                print(f"{workload.name}: not pinned: "
                      f"{problems or 'the two reps disagree'}",
                      file=sys.stderr)
                return 1
            golden[workload.name] = reps[0].digest
            print(f"{workload.name} {reps[0].digest}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
