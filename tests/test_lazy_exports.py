"""Every lazy export resolves to the object its module defines.

Package ``__init__`` files declare their exports as ``{module: names}``
tables (``repro._lazy.lazy_exports``) instead of importing them, so a
misspelled entry no longer fails at import time. These tests take that
check over: every declared name must load, from the module its table
names, and every ``__all__`` entry must resolve.
"""

import ast
import importlib
import inspect
import os
import pkgutil

import pytest

import repro

#: every package under src/repro, plus the facade, which declares its
#: subsystem names the same way
MODULES = sorted(["repro", "repro.api"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg])


def declared_table(module) -> dict:
    """The ``{module: names}`` table *module* passes to ``lazy_exports``,
    evaluated in the module's own namespace."""
    tree = ast.parse(inspect.getsource(module))
    [call] = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"]
    expression = compile(ast.Expression(call.args[1]), module.__file__,
                         "eval")
    return eval(expression, vars(module))


def test_every_package_is_covered():
    top = os.path.dirname(repro.__path__[0])
    packages = {os.path.relpath(root, top).replace(os.sep, ".")
                for root, _, files in os.walk(repro.__path__[0])
                if "__init__.py" in files}
    assert packages == set(MODULES) - {"repro.api"}


@pytest.mark.parametrize("name", MODULES)
def test_each_declared_name_is_its_modules_attribute(name):
    module = importlib.import_module(name)
    table = declared_table(module)
    assert table
    for owner, exports in table.items():
        source = importlib.import_module(owner, name)
        for export in exports:
            expected = source if owner.rpartition(".")[2] == export \
                else getattr(source, export)
            assert getattr(module, export) is expected, (name, export)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_is_listed_by_dir(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    for export in module.__all__:
        assert hasattr(module, export), (name, export)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("name", ["repro.dse", "repro.tta.fus"])
def test_star_import_binds_every_export(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert {export: namespace[export] for export in module.__all__} \
        == {export: getattr(module, export) for export in module.__all__}


def test_unknown_name_is_an_attribute_error():
    import repro.dse
    with pytest.raises(AttributeError, match="repro.dse.*no_such_name"):
        repro.dse.no_such_name
    assert not hasattr(repro, "no_such_name")
