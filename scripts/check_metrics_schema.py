#!/usr/bin/env python3
"""Validate the ``metrics`` section of an ``--output`` JSON document.

Usage::

    python scripts/check_metrics_schema.py table1.json [more.json ...]

Each document must carry a ``metrics`` key conforming to
``schemas/metrics.schema.json`` (generated from ``repro.obs.catalogue``:
declared metrics only, with their label names and label domains). Uses
``jsonschema`` when it is importable, else a built-in validator for the
schema subset used here (type, enum, required, properties,
additionalProperties, items, $ref into #/definitions), so CI needs no
extra dependency.
"""

from __future__ import annotations

import json
import os
import sys

SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "schemas", "metrics.schema.json")

_TYPES = {"object": dict, "array": list, "string": str,
          "number": (int, float), "boolean": bool}


def _validate(instance, schema, root, path="$"):
    """Minimal draft-07 subset validator; returns a list of error strings."""
    ref = schema.get("$ref")
    if ref is not None:
        target = root
        for part in ref.lstrip("#/").split("/"):
            target = target[part]
        return _validate(instance, target, root, path)
    if "enum" in schema and instance not in schema["enum"]:
        return [f"{path}: {instance!r} is not one of {schema['enum']}"]
    errors = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        if not isinstance(instance, python_type) or \
                (expected == "number" and isinstance(instance, bool)):
            return [f"{path}: expected {expected}, "
                    f"got {type(instance).__name__}"]
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            if key in properties:
                errors.extend(_validate(value, properties[key], root,
                                        f"{path}.{key}"))
            elif isinstance(additional, dict):
                errors.extend(_validate(value, additional, root,
                                        f"{path}.{key}"))
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(_validate(item, schema["items"], root,
                                    f"{path}[{i}]"))
    return errors


def validate(instance, schema) -> list:
    """Errors of *instance* under *schema*: ``jsonschema``'s when it is
    importable, the built-in subset validator's otherwise."""
    try:
        import jsonschema
    except ImportError:
        return _validate(instance, schema, schema)
    validator = jsonschema.Draft7Validator(schema)
    return [f"$.{'.'.join(map(str, e.absolute_path))}: {e.message}"
            for e in validator.iter_errors(instance)]


def check(document_path: str, schema: dict) -> int:
    with open(document_path, encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = document.get("metrics")
    if metrics is None:
        print(f"{document_path}: FAIL — no 'metrics' section")
        return 1
    errors = validate(metrics, schema)
    if errors:
        print(f"{document_path}: FAIL")
        for error in errors:
            print(f"  {error}")
        return 1
    counts = {section: len(metrics[section])
              for section in ("counters", "gauges", "histograms")}
    print(f"{document_path}: OK — "
          + ", ".join(f"{n} {kind}" for kind, n in counts.items()))
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
