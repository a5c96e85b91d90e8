"""The public surface is pinned: ``repro.api`` signatures and the CLI's
options (defaults, choices, nargs, type, action, metavar, required)
match ``public_surface.json``.

Moving an import (the facade loads its subsystems on first use) must
not change what a caller can pass or what a default is. Regenerate the
fixture only in a change that means to alter the surface::

    PYTHONPATH=src python tests/test_public_surface.py > tests/public_surface.json
"""

import argparse
import inspect
import json
import os
import sys

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "public_surface.json")


def _plain(value):
    """*value* as JSON data: sequences as lists, anything else exotic as
    its repr."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _api_surface(api) -> dict:
    surface = {}
    for name in sorted(api.__all__):
        value = getattr(api, name)
        surface[name] = (str(inspect.signature(value)) if callable(value)
                         else repr(value))
    return surface


#: argparse action classes by the ``action=`` name that selects them
_ACTIONS = {argparse._StoreAction: "store",
            argparse._StoreTrueAction: "store_true",
            argparse._AppendAction: "append"}


def _option(action: argparse.Action) -> dict:
    return {"options": list(action.option_strings) or [action.dest],
            "default": _plain(action.default),
            "choices": _plain(action.choices),
            "nargs": _plain(action.nargs),
            "type": getattr(action.type, "__name__", _plain(action.type)),
            "action": _ACTIONS.get(type(action), type(action).__name__),
            "metavar": _plain(action.metavar),
            "required": action.required}


def _cli_surface(parser: argparse.ArgumentParser) -> dict:
    [commands] = [action for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {name: [_option(action) for action in sub._actions
                   if not isinstance(action, argparse._HelpAction)]
            for name, sub in sorted(commands.choices.items())}


def surface() -> dict:
    from repro import api
    from repro.cli import _build_parser
    return {"api": _api_surface(api), "cli": _cli_surface(_build_parser())}


def _pinned() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_api_signatures_are_unchanged():
    assert surface()["api"] == _pinned()["api"]


def test_cli_options_defaults_and_choices_are_unchanged():
    assert surface()["cli"] == _pinned()["cli"]


def test_facade_defaults_are_the_deep_modules_constants():
    # the facade spells these defaults without loading the subsystems
    # that own them; they must still be those subsystems' values
    from repro import api
    from repro.dse import sdc
    from repro.service import SupervisionPolicy
    sdc_sweep = inspect.signature(api.sdc_sweep).parameters
    assert sdc_sweep["trials"].default == sdc.DEFAULT_TRIALS
    assert sdc_sweep["rate"].default == sdc.DEFAULT_RATE
    memory = inspect.signature(api.memory_sdc_sweep).parameters
    assert memory["lookups"].default == sdc.DEFAULT_MEMORY_LOOKUPS
    assert memory["flips"].default == sdc.DEFAULT_MEMORY_FLIPS
    service = inspect.signature(api.campaign_service).parameters
    assert service["heartbeat"].default \
        == SupervisionPolicy.heartbeat_seconds
    assert api.SupervisionPolicy is SupervisionPolicy


if __name__ == "__main__":
    json.dump(surface(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
