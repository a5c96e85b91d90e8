#!/usr/bin/env python3
"""Validate a ``conformance --output`` JSON document.

Usage::

    python scripts/check_conformance_schema.py conformance.json [...]

Each document must conform to ``schemas/conformance.schema.json``
(checked by :mod:`check_metrics_schema`'s ``validate``); domain checks
then cover what the structural pass cannot express: every case status is
one of pass/fail/skip, the counts add up to the case list, and the
``passed`` flag agrees with the failure count.
"""

from __future__ import annotations

import json
import os
import sys

_SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _SCRIPTS_DIR)

from check_metrics_schema import validate  # noqa: E402

SCHEMA_PATH = os.path.join(_SCRIPTS_DIR, os.pardir, "schemas",
                           "conformance.schema.json")


def _check_consistency(document: dict, schema: dict) -> list:
    errors = []
    allowed = set(schema["definitions"]["case_status"]["enum"])
    cases = document.get("cases", [])
    tally = {status: 0 for status in allowed}
    for i, case in enumerate(cases):
        status = case.get("status")
        if status not in allowed:
            errors.append(f"$.cases[{i}]: status {status!r} is not one "
                          f"of {sorted(allowed)}")
        else:
            tally[status] += 1
    counts = document.get("counts", {})
    for status in sorted(allowed):
        if counts.get(status) != tally[status]:
            errors.append(
                f"$.counts.{status}: {counts.get(status)!r} does not "
                f"match the {tally[status]} case(s) with that status")
    if document.get("passed") != (tally.get("fail", 0) == 0):
        errors.append(
            f"$.passed: {document.get('passed')!r} disagrees with "
            f"{tally.get('fail', 0)} failing case(s)")
    return errors


def check(document_path: str, schema: dict) -> int:
    with open(document_path, encoding="utf-8") as handle:
        document = json.load(handle)
    errors = validate(document, schema)
    if isinstance(document, dict):
        errors.extend(_check_consistency(document, schema))
    if errors:
        print(f"{document_path}: FAIL")
        for error in errors:
            print(f"  {error}")
        return 1
    counts = document.get("counts", {})
    extra = ", with replay section" if "replay" in document else ""
    print(f"{document_path}: OK — {len(document.get('cases', []))} cases "
          f"({counts.get('pass', 0)} pass, {counts.get('fail', 0)} fail, "
          f"{counts.get('skip', 0)} skip){extra}")
    return 0


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(SCHEMA_PATH, encoding="utf-8") as handle:
        schema = json.load(handle)
    return max(check(path, schema) for path in argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
