#!/usr/bin/env python3
"""Fail on any ``def`` or ``class`` in ``src/`` that nothing refers to.

A definition is referenced when its name occurs in the repository's
Python anywhere other than at a definition of that name: as an
identifier, or as a word inside a string literal, so the name tables of
the lazy package exports count. Comments do not count. Dunder methods
are called by the interpreter and are skipped. Names reached only
through ``getattr`` dispatch are listed in :data:`ALLOWED`.

Usage: ``python scripts/check_unreferenced.py [REPO_ROOT]``. Standard
library only; exits 1 and names each unreferenced definition.
"""

from __future__ import annotations

import ast
import collections
import io
import os
import re
import sys
import tokenize
from typing import Counter, Iterator, List, Tuple

#: (path under src/, name) of definitions reached only by ``getattr``
ALLOWED = {
    # ControlPlaneAssault builds "_" + kind + "_payload" for each attack
    ("repro/faults/control.py", "_malformed_payload"),
    ("repro/faults/control.py", "_martian_payload"),
    ("repro/faults/control.py", "_spoofed_next_hop_payload"),
    ("repro/faults/control.py", "_withdrawal_payload"),
    ("repro/faults/control.py", "_oversized_payload"),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: string literal tokens; from Python 3.12 an f-string's text is its own
#: FSTRING_MIDDLE token
_STRINGS = {tokenize.STRING,
            getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
_SKIP_DIRS = {".git", "__pycache__", "build", "dist"}


def python_files(root: str) -> Iterator[str]:
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(d for d in subdirs
                            if d not in _SKIP_DIRS and not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def mentions(source: str) -> Counter[str]:
    """Identifier tokens, plus every word inside string literals."""
    counts: Counter[str] = collections.Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type in _STRINGS:
            counts.update(_WORD.findall(token.string))
    return counts


def definitions(source: str) -> List[Tuple[int, str]]:
    """(line, name) of every function, method and class."""
    return [(node.lineno, node.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def unreferenced(root: str, allowed=ALLOWED) -> List[str]:
    src = os.path.join(root, "src")
    counts: Counter[str] = collections.Counter()
    defined: Counter[str] = collections.Counter()
    sites: List[Tuple[str, int, str]] = []
    for path in python_files(root):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        counts.update(mentions(source))
        found = definitions(source)
        defined.update(name for _, name in found)
        if os.path.commonpath([src, path]) == src:
            relative = os.path.relpath(path, src).replace(os.sep, "/")
            sites += [(relative, line, name) for line, name in found]
    stale = allowed - {(path, name) for path, _, name in sites}
    return [f"src/{path}:{line}: {name} is defined but never referenced"
            for path, line, name in sites
            if not (name.startswith("__") and name.endswith("__"))
            and (path, name) not in allowed
            and counts[name] <= defined[name]] + [
        f"src/{path}: {name} is allowed but no longer defined"
        for path, name in sorted(stale)]


def main(argv: List[str]) -> int:
    root = argv[0] if argv else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    problems = unreferenced(root)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
