"""Every metric a CLI surface publishes is declared once, in
``repro.obs.catalogue``, and a disabled registry records nothing."""

import json
import os
import re

from repro.cli import main
from repro.obs import MetricsRegistry, catalogue, set_registry

#: the capture ``ripng`` writes and ``replay`` reads, in the test's cwd
CAPTURE = "capture.pcap"

#: name -> argv: every surface that writes a metrics section, small
SURFACES = {
    "table1": ["table1", "--entries", "10", "--packets", "2"],
    "sdc": ["sdc", "--table", "sequential", "--buses", "1", "--site", "bus",
            "--site", "result", "--trials", "3", "--seed", "3",
            "--rate", "0.05", "--entries", "8", "--packets", "2"],
    "sdc-prefixes": ["sdc", "--prefixes", "40", "--lookups", "30",
                     "--trials", "1", "--seed", "7", "--table", "sequential",
                     "--table", "cam", "--table", "bloom"],
    "lookup-sweep": ["lookup-sweep", "--prefixes", "60", "200",
                     "--lookups", "80", "--seed", "5"],
    "ripng": ["ripng", "--topology", "ring", "--routers", "4",
              "--prefixes", "50", "--capture", CAPTURE],
    "chaos": ["chaos", "--topology", "ring", "--routers", "4",
              "--prefixes", "50", "--drop", "0.05", "--corrupt", "0.02",
              "--reorder", "0.05", "--seed", "3"],
    "assault": ["assault", "--routers", "3", "--rounds", "10"],
    "conformance": ["conformance", "--table", "cam"],
    "replay": ["conformance", "--replay", CAPTURE],
}

EMPTY = {"enabled": False, "counters": {}, "gauges": {}, "histograms": {}}

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def run_surfaces(tmp_path, monkeypatch, capsys, env):
    """Run every surface in one directory (``replay`` reads the capture
    ``ripng`` wrote) on a registry built from *env*; returns name ->
    the ``metrics`` section of its ``--output``."""
    monkeypatch.chdir(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    sections = {}
    for name, argv in SURFACES.items():
        previous = set_registry(MetricsRegistry())
        try:
            main(argv + ["--output", "out.json"])
        finally:
            set_registry(previous)
        capsys.readouterr()
        sections[name] = json.loads(
            (tmp_path / "out.json").read_text())["metrics"]
    return sections


def test_disabled_registry_writes_empty_sections(tmp_path, monkeypatch,
                                                 capsys):
    sections = run_surfaces(tmp_path, monkeypatch, capsys,
                            {"REPRO_NO_METRICS": "1"})
    assert sections == {name: EMPTY for name in SURFACES}


def test_published_metrics_are_catalogue_entries(tmp_path, monkeypatch,
                                                 capsys, metrics_checker):
    monkeypatch.delenv("REPRO_NO_METRICS", raising=False)
    sections = run_surfaces(tmp_path, monkeypatch, capsys, {})
    declared = {metric.name: metric for metric in catalogue.CATALOGUE}
    schema = catalogue.schema()
    published = set()
    for name, metrics in sections.items():
        assert metrics["enabled"], name
        assert metrics_checker._validate(metrics, schema, schema) == [], name
        for section in ("counters", "gauges", "histograms"):
            for metric_name, entry in metrics[section].items():
                metric = declared[metric_name]
                assert metric.kind + "s" == section, metric_name
                assert entry["help"] == metric.help, metric_name
                assert tuple(entry["label_names"]) == metric.label_names
                published.add(metric_name)
    # the surfaces reach every subsystem that publishes
    assert {name.split("_")[0] for name in published} >= {
        "tta", "routing", "dse", "sdc", "lookup", "ripng", "net",
        "conformance", "replay"}


def test_every_entry_has_a_publishing_site():
    """No declaration is dead: each entry is published from ``src/``,
    directly or through a name it is bound to (``resumed_metric``)."""
    sources = []
    for root, _, files in os.walk(SRC):
        for file in files:
            if file.endswith(".py") and file != "catalogue.py":
                with open(os.path.join(root, file), encoding="utf-8") as f:
                    sources.append(f.read())
    text = "\n".join(sources)
    # One scan: ``name.inc(``/``.set(``/``.observe(`` publishes name, and
    # ``alias = NAME`` (optionally annotated) binds alias to NAME. The
    # lookahead leaves NAME unconsumed, so ``a = b = NAME`` and
    # ``x = NAME.inc(`` are both seen.
    published, aliases = set(), {}
    for match in re.finditer(
            r"\b(\w+)(?:\.(?:inc|set|observe)\(|(?:: \w+)? = (?=(\w+)\b))",
            text):
        name, target = match.groups()
        if target is None:
            published.add(name)
        else:
            aliases.setdefault(target, []).append(name)
    for attribute, value in vars(catalogue).items():
        if not isinstance(value, catalogue.Metric):
            continue
        assert any(name in published
                   for name in [attribute, *aliases.get(attribute, ())]), \
            attribute


def test_every_entry_is_module_level_and_unique():
    names = [metric.name for metric in catalogue.CATALOGUE]
    assert len(names) == len(set(names))
    bound = {id(value) for value in vars(catalogue).values()
             if isinstance(value, catalogue.Metric)}
    assert bound == {id(metric) for metric in catalogue.CATALOGUE}
