"""``tests/mutants.json`` stays applicable: every mutant's ``old`` text
occurs exactly once in its file, so ``scripts/check_mutants.py`` (the
CI ``mutants`` job, which runs each mutant's tests) never skips one."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_mutants", os.path.join(ROOT, "scripts", "check_mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_exactly_once(checker):
    stale = {mutant["id"]: checker.stale(mutant)
             for mutant in checker.load()}
    assert {key: why for key, why in stale.items() if why} == {}


def test_every_mutant_names_tests_that_exist(checker):
    mutants = checker.load()
    assert len({mutant["id"] for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        assert mutant["old"] != mutant["new"], mutant["id"]
        assert mutant["tests"], mutant["id"]
        for node in mutant["tests"]:
            path = node.split("::")[0]
            assert os.path.isfile(os.path.join(ROOT, path)), node
