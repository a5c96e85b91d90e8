#!/usr/bin/env python3
"""Fail unless every mutant in ``tests/mutants.json`` is killed.

A mutant is one deliberate bug: an ``old`` snippet in one ``file`` under
``src/`` (or ``scripts/``) replaced by ``new``. Its ``tests`` are the
pytest node ids that must fail on the mutated code, run with the
mutant's optional ``env`` variables set (for a bug that shows only with
metrics off, say). For each mutant the script copies the tree the tests
read (``src/``, ``tests/``, ``scripts/``, ``schemas/``,
``pyproject.toml``) into a temporary directory, applies the edit there
and runs only that mutant's tests against the copy. The working tree is
never edited.

A mutant *survives* when its tests pass, and is *stale* when ``old`` no
longer occurs exactly once in its file; either fails the check, and so
does a pytest run that is not a plain test failure (a misspelled node
id, a collection error).

Usage: ``python scripts/check_mutants.py [ID ...]`` from the
repository root (default: every mutant). Standard library only (plus
pytest, which runs the tests); exits 1 and names each mutant that was
not killed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "tests", "mutants.json")
#: what a mutant's tests read, copied into each mutant's tree
COPIED = ("src", "tests", "scripts", "schemas", "pyproject.toml")
#: pytest's exit status when at least one test failed
TESTS_FAILED = 1
#: a mutant whose tests hang is killed, after this long
TIMEOUT_SECONDS = 600


def load(path: str = MUTANTS) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def stale(mutant: Dict[str, object], root: str = ROOT) -> str:
    """Why *mutant* can no longer be applied under *root*, or ``""``."""
    path = os.path.join(root, str(mutant["file"]))
    if not os.path.isfile(path):
        return f"{mutant['file']} does not exist"
    with open(path, encoding="utf-8") as handle:
        count = handle.read().count(str(mutant["old"]))
    if count != 1:
        return f"'old' occurs {count} times in {mutant['file']}, not once"
    return ""


def _copy_tree(target: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in COPIED:
        source = os.path.join(ROOT, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(target, name), ignore=ignore)
        elif os.path.isfile(source):
            shutil.copy2(source, os.path.join(target, name))


def run(mutant: Dict[str, object]) -> str:
    """``"killed"``, or why *mutant* was not killed."""
    problem = stale(mutant)
    if problem:
        return f"stale: {problem}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        _copy_tree(tree)
        path = os.path.join(tree, str(mutant["file"]))
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(str(mutant["old"]),
                                      str(mutant["new"])))
        env = dict(os.environ, **mutant.get("env", {}),
                   PYTHONPATH=os.path.join(tree, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x",
                   "-p", "no:cacheprovider", *mutant["tests"]]
        try:
            result = subprocess.run(command, cwd=tree, env=env,
                                    capture_output=True, text=True,
                                    timeout=TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            return "killed"
    if result.returncode == TESTS_FAILED:
        return "killed"
    if result.returncode == 0:
        return "survived: its tests pass on the mutated code"
    tail = (result.stdout + result.stderr).strip().splitlines()[-3:]
    return f"pytest exited {result.returncode}: " + " | ".join(tail)


def main(argv: List[str]) -> int:
    mutants = load()
    wanted = set(argv)
    unknown = wanted - {str(mutant["id"]) for mutant in mutants}
    if unknown:
        print(f"unknown mutant id(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for mutant in mutants:
        if wanted and mutant["id"] not in wanted:
            continue
        started = time.monotonic()
        outcome = run(mutant)
        print(f"{mutant['id']}: {outcome} "
              f"({time.monotonic() - started:.1f} s)", flush=True)
        failures += outcome != "killed"
    if failures:
        print(f"{failures} mutant(s) not killed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
