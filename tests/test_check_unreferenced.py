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
        "tests/test_mod.py": "from pkg.mod import used, Thing\n"
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


def test_a_stale_allowance_fails(checker, tmp_path):
    root = _repo(tmp_path, {"src/pkg/mod.py": "X = 1\n"})
    assert checker.unreferenced(root, allowed={("pkg/mod.py", "gone")}) \
        == ["src/pkg/mod.py: gone is allowed but no longer defined"]


def test_the_repository_has_no_unreferenced_definition(checker):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    assert checker.unreferenced(root) == []
