#!/usr/bin/env python3
"""Fail on any ``def``, ``class`` or import in ``src/`` that nothing refers to.

A definition is referenced when its name occurs in the repository's
Python outside ``tests/`` anywhere other than at a definition of that
name: as an identifier, or as a word inside a string literal. Code that
only tests reach is unreferenced. Comments and docstrings do not count,
and neither does the name table of a package ``__init__``'s
``lazy_exports(...)`` call; the table in ``repro/api.py``, the pinned
public surface, does. Dunder methods are called by the interpreter and
are skipped. The few names kept without a reference are listed in
:data:`ALLOWED`, each with its reason.

A module-level import of a module in ``src/`` other than a package
``__init__`` (which imports to re-export) is unused when the rest of its
module never mentions the name it binds, by the same measure. Imports
from ``__future__`` bind nothing and are exempt.

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
from typing import Counter, Iterator, List, Sequence, Tuple

#: (path under src/, name) of definitions kept without a reference
ALLOWED = {
    # ControlPlaneAssault builds "_" + kind + "_payload" for each attack
    ("repro/faults/control.py", "_malformed_payload"),
    ("repro/faults/control.py", "_martian_payload"),
    ("repro/faults/control.py", "_spoofed_next_hop_payload"),
    ("repro/faults/control.py", "_withdrawal_payload"),
    ("repro/faults/control.py", "_oversized_payload"),
    # reference oracle: tests round-trip programs to prove program_bytes
    ("repro/asm/encoding.py", "encode_instruction"),
    ("repro/asm/encoding.py", "decode_instruction"),
    # reference oracles: tests check each structure after every update
    ("repro/routing/balanced_tree.py", "check_invariants"),
    ("repro/routing/balanced_tree.py", "tree_height"),
    ("repro/routing/bloom.py", "check_invariants"),
    ("repro/routing/multibit_trie.py", "check_invariants"),
    # fault-recovery path: a struck table reloads from its route journal
    ("repro/routing/protected.py", "rebuild"),
    # CI's backend-smoke job calls it; goes with the compiled backend
    ("repro/verify/backends.py", "verify_backend"),
    # ROADMAP item 4 (per-phase cycle attribution) decides this module
    ("repro/tta/trace.py", "moves_of"),
    ("repro/tta/trace.py", "trace_program"),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: string literal tokens; from Python 3.12 an f-string's text is its own
#: FSTRING_MIDDLE token
_STRINGS = {tokenize.STRING,
            getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
_SKIP_DIRS = {".git", "__pycache__", "build", "dist"}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)

Position = Tuple[int, int]
Span = Tuple[Position, Position]


def python_files(root: str) -> Iterator[str]:
    """Every ``.py`` file under *root*, except those in ``root/tests``."""
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = sorted(
            d for d in subdirs
            if d not in _SKIP_DIRS and not d.startswith(".")
            and not (directory == root and d == "tests"))
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def mentions(source: str, ignored: Sequence[Span] = ()) -> Counter[str]:
    """Identifier tokens, plus every word inside string literals, of the
    tokens that start outside the sorted, disjoint *ignored* spans."""
    counts: Counter[str] = collections.Counter()
    spans = iter(ignored)
    span = next(spans, None)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        while span is not None and span[1] <= token.start:
            span = next(spans, None)
        if span is not None and span[0] <= token.start:
            continue
        if token.type == tokenize.NAME:
            counts[token.string] += 1
        elif token.type in _STRINGS:
            counts.update(_WORD.findall(token.string))
    return counts


def _span(node: ast.AST) -> Span:
    return ((node.lineno, node.col_offset),
            (node.end_lineno, node.end_col_offset))


def definitions(source: str, export_table: bool = False
                ) -> Tuple[List[Tuple[int, str]], List[Span]]:
    """(line, name) of every function, method and class, and the sorted
    spans of the docstrings, plus, when *export_table*, of the
    ``lazy_exports(...)`` calls."""
    found, ignored = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, _DOCUMENTED) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            ignored.append(_span(node.body[0]))
        elif export_table and isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "lazy_exports":
            ignored.append(_span(node))
    return found, sorted(ignored)


def _module_imports(body: Sequence[ast.stmt]
                    ) -> Iterator[Tuple[ast.stmt, List[str]]]:
    """Each import statement among *body*, also inside a module-level
    ``if`` or ``try``, with the names it binds."""
    for node in body:
        if isinstance(node, ast.Import):
            yield node, [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                yield node, [alias.asname or alias.name
                             for alias in node.names if alias.name != "*"]
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(handler.body for handler
                            in getattr(node, "handlers", []))):
                yield from _module_imports(block)


def unused_imports(source: str, docstrings: Sequence[Span]
                   ) -> List[Tuple[int, str]]:
    """(line, name) of every name a module-level import of *source*
    binds that the rest of the module, outside its *docstrings* spans,
    never mentions."""
    imports = list(_module_imports(ast.parse(source).body))
    counts = mentions(source, sorted([*docstrings, *(
        _span(node) for node, _ in imports)]))
    return [(node.lineno, name) for node, names in imports
            for name in names if not counts[name]]


def unreferenced(root: str, allowed=ALLOWED) -> List[str]:
    root = os.path.abspath(root)
    src = os.path.join(root, "src")
    counts: Counter[str] = collections.Counter()
    defined: Counter[str] = collections.Counter()
    sites: List[Tuple[str, int, str]] = []
    unused: List[str] = []
    for path in python_files(root):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        found, ignored = definitions(
            source, export_table=os.path.basename(path) == "__init__.py")
        counts.update(mentions(source, ignored))
        defined.update(name for _, name in found)
        if os.path.commonpath([src, path]) == src:
            relative = os.path.relpath(path, src).replace(os.sep, "/")
            sites += [(relative, line, name) for line, name in found]
            if os.path.basename(path) != "__init__.py":
                unused += [f"src/{relative}:{line}: {name} is imported "
                           f"but never used"
                           for line, name in unused_imports(source, ignored)]
    stale = allowed - {(path, name) for path, _, name in sites}
    return [f"src/{path}:{line}: {name} is defined but never referenced"
            for path, line, name in sites
            if not (name.startswith("__") and name.endswith("__"))
            and (path, name) not in allowed
            and counts[name] <= defined[name]] + unused + [
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
