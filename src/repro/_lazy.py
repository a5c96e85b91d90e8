"""Lazy package exports (PEP 562): a name loads its module on first use.

A package declares its exports once, as ``{module: names}``, where a
module name with a leading dot is relative to the package::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".campaign": ("CampaignRunner", "run_table1_campaign"),
        ".sdc": ("SdcSweepRunner",),
    })

Importing the package, or one of its submodules, then loads nothing
else: ``repro.dse.sdc`` is imported when ``repro.dse.SdcSweepRunner`` is
first looked up, not when ``repro.dse.campaign`` is. A module listed
under its own name exports the module itself (``repro.api``).
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable, List, Mapping, Tuple


def lazy_exports(package: str, table: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the module *package*,
    which exports the names *table* lists under each module."""
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str):
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module_name = package + owner if owner.startswith(".") else owner
        # __import__, unlike importlib.import_module, shows the load in
        # python -X importtime
        __import__(module_name)
        module = sys.modules[module_name]
        value = module if owner.rpartition(".")[2] == name \
            else getattr(module, name)
        # bind it, so the next lookup is a plain attribute read
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__, list(owners)
