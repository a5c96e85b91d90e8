"""``scripts/check_unreferenced.py`` on small throwaway repositories."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "check_unreferenced.py")


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_unreferenced",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _repo(tmp_path, files):
    for path, text in files.items():
        target = tmp_path / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(tmp_path)


def test_flags_a_definition_nothing_mentions(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/mod.py": "def used():\n    pass\n\n"
                          "def orphan():\n    pass\n\n"
                          "class Thing:\n    def __repr__(self):\n"
                          "        return ''\n",
        "examples/demo.py": "from pkg.mod import used, Thing\n"
                            "# orphan (a comment is no reference)\n",
    })
    assert checker.unreferenced(root, allowed=set()) == [
        "src/pkg/mod.py:4: orphan is defined but never referenced"]


def test_string_mentions_count_as_references(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/__init__.py": "TABLE = {'.mod': ('lazy_name',)}\n"
                               "CODE = f\"{TABLE} fstring_name()\"\n",
        "src/pkg/mod.py": "def lazy_name():\n    pass\n\n\n"
                          "def fstring_name():\n    pass\n",
    })
    assert checker.unreferenced(root, allowed=set()) == []


def test_mentions_in_tests_do_not_count(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/mod.py": "def tested_only():\n    pass\n",
        "tests/test_mod.py": "from pkg.mod import tested_only\n"
                             "tested_only()\n",
    })
    assert checker.unreferenced(root, allowed=set()) == [
        "src/pkg/mod.py:1: tested_only is defined but never referenced"]


_EXPORTS = ("from repro._lazy import lazy_exports\n\n"
            "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
            "    '.mod': ('exported',),\n"
            "})\n")


def test_a_package_export_table_does_not_count(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/__init__.py": _EXPORTS,
        "src/pkg/mod.py": "def exported():\n    pass\n",
    })
    assert checker.unreferenced(root, allowed=set()) == [
        "src/pkg/mod.py:1: exported is defined but never referenced"]


def test_a_module_export_table_counts(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/api.py": _EXPORTS,
        "src/pkg/mod.py": "def exported():\n    pass\n",
    })
    assert checker.unreferenced(root, allowed=set()) == []


def test_docstring_mentions_do_not_count(checker, tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/mod.py": '"""See documented()."""\n\n\n'
                          "def documented():\n"
                          '    """documented() does nothing."""\n\n\n'
                          "class Thing:\n"
                          '    """Calls ``documented``."""\n\n'
                          "    def __repr__(self):\n"
                          '        """documented"""\n'
                          "        return ''\n",
        "examples/demo.py": "from pkg.mod import Thing\n",
    })
    assert checker.unreferenced(root, allowed=set()) == [
        "src/pkg/mod.py:4: documented is defined but never referenced"]


@pytest.mark.parametrize("directory", ["benchmarks", "examples"])
def test_benchmarks_and_examples_count(checker, tmp_path, directory):
    root = _repo(tmp_path, {
        "src/pkg/mod.py": "def measured():\n    pass\n",
        f"{directory}/test_run.py": "from pkg.mod import measured\n",
    })
    assert checker.unreferenced(root, allowed=set()) == []


def test_a_relative_root_checks_the_same_tree(checker, tmp_path,
                                              monkeypatch):
    root = _repo(tmp_path, {
        "src/pkg/mod.py": "def orphan():\n    pass\n\n\n"
                          "def _dispatched():\n    pass\n",
    })
    allowed = {("pkg/mod.py", "_dispatched"), ("pkg/mod.py", "gone")}
    monkeypatch.chdir(root)
    relative = checker.unreferenced(".", allowed=allowed)
    assert relative == checker.unreferenced(root, allowed=allowed) == [
        "src/pkg/mod.py:1: orphan is defined but never referenced",
        "src/pkg/mod.py: gone is allowed but no longer defined"]


def test_a_stale_allowance_fails(checker, tmp_path):
    root = _repo(tmp_path, {"src/pkg/mod.py": "X = 1\n"})
    assert checker.unreferenced(root, allowed={("pkg/mod.py", "gone")}) \
        == ["src/pkg/mod.py: gone is allowed but no longer defined"]


def test_flags_a_module_level_import_its_module_never_uses(checker,
                                                           tmp_path):
    root = _repo(tmp_path, {
        "src/pkg/__init__.py": "from pkg.mod import Used\n",
        "src/pkg/mod.py": "from __future__ import annotations\n\n"
                          "import os.path\n"
                          "from typing import Dict, Optional\n"
                          "try:\n    import json as codec\n"
                          "except ImportError:\n    pass\n\n\n"
                          "class Used:\n"
                          '    """Optional (a docstring is no use)."""\n\n'
                          "    table: \"Dict[str, int]\"\n\n"
                          "    def load(self):\n"
                          "        import sys\n"
                          "        return os.path.join('a', 'b')\n",
        "examples/demo.py": "from pkg import Used\nUsed().load()\n",
    })
    assert checker.unreferenced(root, allowed=set()) == [
        "src/pkg/mod.py:4: Optional is imported but never used",
        "src/pkg/mod.py:6: codec is imported but never used"]


def test_the_repository_has_no_unreferenced_definition(checker):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    assert checker.unreferenced(root) == []
