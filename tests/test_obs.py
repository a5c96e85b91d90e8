"""Observability layer: registry, instruments, and surfacing."""

import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.dse import ArchitectureConfiguration
from repro.errors import ObservabilityError
from repro.obs import (
    METRICS_ENV,
    MetricsRegistry,
    catalogue,
    get_registry,
    render_snapshot,
    set_registry,
)


@pytest.fixture
def registry():
    """A fresh enabled registry installed as the process default."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


class TestInstruments:
    def test_counter_accumulates_per_label_set(self, registry):
        frames = registry.counter("frames", labels=("link",))
        frames.inc(link="a")
        frames.inc(3, link="a")
        frames.inc(link="b")
        assert frames.value(link="a") == 4
        assert frames.value(link="b") == 1
        assert frames.value(link="never") == 0

    def test_counter_rejects_negative_increment(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("c").inc(-1)

    def test_label_names_are_validated(self, registry):
        counter = registry.counter("c", labels=("kind",))
        with pytest.raises(ObservabilityError):
            counter.inc(wrong="x")
        with pytest.raises(ObservabilityError):
            counter.inc()  # missing the declared label

    def test_gauge_set_inc_dec(self, registry):
        depth = registry.gauge("depth")
        depth.set(5)
        depth.inc(2)
        depth.inc(-3)
        assert depth.value() == 4

    def test_histogram_buckets_sum_count_mean(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            h.observe(value)
        assert h.count() == 4
        assert h.sum() == pytest.approx(6.05)
        assert h.mean() == pytest.approx(6.05 / 4)
        [sample] = h._snapshot_values()
        assert sample["buckets"] == [1, 2, 1]  # <=0.1, <=1.0, overflow

    def test_histogram_requires_buckets(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("empty", buckets=())

    def test_get_or_create_returns_the_same_instrument(self, registry):
        assert registry.counter("c", labels=("k",)) is \
            registry.counter("c", labels=("k",))

    def test_kind_conflict_raises(self, registry):
        registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_label_conflict_raises(self, registry):
        registry.counter("x", labels=("a",))
        with pytest.raises(ObservabilityError):
            registry.counter("x", labels=("b",))


class TestRegistry:
    def test_disabled_instruments_are_no_ops(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("c")
        registry.disable()
        counter.inc()
        registry.gauge("g").set(7)
        registry.histogram("h").observe(1.0)
        registry.enable()
        assert counter.value() == 0
        assert registry.gauge("g").value() == 0
        assert registry.histogram("h").count() == 0

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv(METRICS_ENV, "1")
        assert not MetricsRegistry().enabled
        monkeypatch.setenv(METRICS_ENV, "0")
        assert MetricsRegistry().enabled
        monkeypatch.delenv(METRICS_ENV)
        assert MetricsRegistry().enabled

    def test_reset_clears_values_but_keeps_instruments(self, registry):
        counter = registry.counter("c")
        counter.inc(9)
        registry.reset()
        assert counter.value() == 0
        assert registry.counter("c") is counter

    def test_snapshot_is_json_ready_and_deterministic(self, registry):
        registry.counter("c", help="a counter", labels=("k",)).inc(k="v")
        registry.gauge("g").set(1.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert sorted(snapshot) == ["counters", "enabled", "gauges",
                                    "histograms"]
        assert snapshot == registry.snapshot()
        rehydrated = json.loads(json.dumps(snapshot))
        assert rehydrated == snapshot
        assert snapshot["counters"]["c"]["values"] == [
            {"labels": {"k": "v"}, "value": 1}]
        assert snapshot["histograms"]["h"]["buckets"] == [1.0]

    def test_render_snapshot(self, registry):
        registry.counter("tta_runs_total", help="runs").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.render()
        assert "tta_runs_total" in text
        assert "runs" in text
        assert "n=1 mean=0.500000s" in text

    def test_render_snapshot_accepts_full_output_document(self, registry):
        registry.counter("c").inc()
        document = {"rows": [], "metrics": registry.snapshot()}
        assert "c" in render_snapshot(document)

    def test_render_empty_snapshot(self):
        registry = MetricsRegistry(enabled=False)
        assert "registry disabled" in registry.render()


CONFIG = ArchitectureConfiguration(bus_count=3, table_kind="sequential")


class TestIntegration:
    def test_evaluation_publishes_simulation_metrics(self, registry):
        api.evaluate(CONFIG, entries=20, packets=2)
        runs = registry.counter("tta_runs_total", labels=("backend",))
        assert runs.value(backend="interpreter") > 0
        cycles = registry.counter("tta_cycles_total", labels=("backend",))
        assert cycles.value(backend="interpreter") > 0
        moves = registry.counter("tta_moves_total", labels=("backend",))
        assert moves.value(backend="interpreter") > 0
        lookups = registry.counter("routing_lookups_total",
                                   labels=("kind", "outcome"))
        assert lookups.value(kind="sequential", outcome="hit") > 0
        seconds = registry.histogram("tta_run_seconds",
                                     labels=("backend",))
        assert seconds.count(backend="interpreter") > 0

    def test_backend_label_splits_simulation_metrics(self, registry):
        api.evaluate(CONFIG, entries=20, packets=2, backend="compiled")
        runs = registry.counter("tta_runs_total", labels=("backend",))
        assert runs.value(backend="compiled") > 0
        assert runs.value(backend="interpreter") == 0
        cycles = registry.counter("tta_cycles_total", labels=("backend",))
        assert cycles.value(backend="compiled") > 0

    def test_results_identical_with_metrics_on_and_off(self, registry):
        enabled = api.evaluate(CONFIG, entries=20, packets=2)
        registry.disable()
        disabled = api.evaluate(CONFIG, entries=20, packets=2)
        assert enabled.to_dict() == disabled.to_dict()
        assert enabled.render() == disabled.render()

    def test_api_metrics_snapshot_and_reset(self, registry):
        registry.counter("c").inc()
        snapshot = api.metrics()
        assert snapshot["counters"]["c"]["values"][0]["value"] == 1
        api.metrics(reset=True)
        assert api.metrics()["counters"]["c"]["values"] == []
        assert api.metrics_registry() is registry
        assert "c" in api.render_metrics()

    def test_write_json_attaches_metrics_section(self, registry, tmp_path):
        from repro.cli import _write_json
        registry.counter("c").inc()
        path = tmp_path / "out.json"
        _write_json(str(path), {"rows": []})
        document = json.loads(path.read_text())
        assert document["rows"] == []
        assert "c" in document["metrics"]["counters"]


class TestCli:
    def test_metrics_from_live_registry(self, registry, capsys):
        from repro.cli import main
        registry.counter("net_rounds_total", help="rounds").inc(4)
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "net_rounds_total" in out and "4" in out

    def test_metrics_from_saved_output_document(self, registry, tmp_path,
                                                capsys):
        from repro.cli import main
        registry.counter("c").inc(2)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"rows": [],
                                    "metrics": registry.snapshot()}))
        assert main(["metrics", "--input", str(path)]) == 0
        assert "c" in capsys.readouterr().out

    def test_metrics_json_format_round_trips(self, registry, capsys):
        from repro.cli import main
        registry.counter("c").inc()
        assert main(["metrics", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["c"]["values"][0]["value"] == 1

    def test_metrics_input_without_section_is_an_error(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"rows": []}))
        assert main(["metrics", "--input", str(path)]) == 2
        assert "no metrics section" in capsys.readouterr().err


class TestCatalogue:
    def test_disabled_registry_creates_nothing(self):
        registry = MetricsRegistry(enabled=False)
        previous = set_registry(registry)
        try:
            catalogue.NET_ROUNDS.inc()
            catalogue.DSE_POOL_SIZE.set(3)
            catalogue.TTA_RUN_SECONDS.observe(0.5, backend="interpreter")
        finally:
            set_registry(previous)
        assert registry.snapshot() == {"enabled": False, "counters": {},
                                       "gauges": {}, "histograms": {}}

    def test_entry_publishes_into_the_current_registry(self, registry):
        catalogue.RIPNG_REJECTED.inc(2, router="r0", reason="malformed")
        entry = registry.snapshot()["counters"]["ripng_rejected_total"]
        assert entry["help"] == catalogue.RIPNG_REJECTED.help
        assert entry["values"] == [
            {"labels": {"router": "r0", "reason": "malformed"}, "value": 2}]
        fresh = MetricsRegistry(enabled=True)
        previous = set_registry(fresh)
        try:
            catalogue.RIPNG_REJECTED.inc(router="r1", reason="malformed")
        finally:
            set_registry(previous)
        assert fresh.counter("ripng_rejected_total",
                             labels=("router", "reason")).value(
            router="r1", reason="malformed") == 1
        assert registry.counter("ripng_rejected_total",
                                labels=("router", "reason")).value(
            router="r1", reason="malformed") == 0

    def test_entries_validate_labels(self, registry):
        """An entry hands its labels to the instrument in one dict; the
        instrument still rejects a renamed, missing or extra name."""
        entries = [
            (catalogue.ROUTING_LOOKUPS.inc, 1,
             {"kind": "cam", "outcome": "hit"}),
            (catalogue.TTA_CYCLES_PER_SECOND.set, 1.0,
             {"backend": "interpreter"}),
            (catalogue.TTA_RUN_SECONDS.observe, 0.5,
             {"backend": "interpreter"}),
        ]
        for publish, value, labels in entries:
            first, *rest = labels
            kept = {name: labels[name] for name in rest}
            for bad in ({**kept, "bogus": labels[first]}, kept,
                        {**labels, "bogus": "x"}):
                with pytest.raises(ObservabilityError):
                    publish(value, **bad)
            publish(value, **labels)
        snapshot = registry.snapshot()
        for section, name, labels in (
                ("counters", "routing_lookups_total",
                 {"kind": "cam", "outcome": "hit"}),
                ("gauges", "tta_cycles_per_second",
                 {"backend": "interpreter"}),
                ("histograms", "tta_run_seconds",
                 {"backend": "interpreter"})):
            assert [value["labels"] for value
                    in snapshot[section][name]["values"]] == [labels]

    def test_entry_counter_rejects_negative_amount(self, registry):
        with pytest.raises(ObservabilityError):
            catalogue.ROUTING_LOOKUPS.inc(-1, kind="cam", outcome="hit")
        catalogue.ROUTING_LOOKUPS.inc(2, kind="cam", outcome="hit")
        assert registry.counter(
            "routing_lookups_total", labels=("kind", "outcome")).value(
            kind="cam", outcome="hit") == 2
        # a gauge may go down
        catalogue.DSE_POOL_SIZE.set(3)
        catalogue.DSE_POOL_SIZE.inc(-1)
        assert registry.gauge("dse_pool_size").value() == 2


SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "schemas",
                           "metrics.schema.json")
REGENERATE = ("PYTHONPATH=src python -m repro.obs.catalogue "
              "> schemas/metrics.schema.json")


@pytest.fixture(params=["fallback", "jsonschema"])
def validate(request, metrics_checker):
    """``validate(metrics) -> errors`` under one of the two validators
    ``scripts/check_metrics_schema.py`` uses."""
    schema = catalogue.schema()
    if request.param == "fallback":
        return lambda metrics: metrics_checker._validate(metrics, schema,
                                                         schema)
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(schema)
    return lambda metrics: list(validator.iter_errors(metrics))


class TestSchema:
    def test_checked_in_schema_is_generated(self):
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            checked_in = json.load(handle)
        assert catalogue.schema() == checked_in, \
            f"schemas/metrics.schema.json is stale; run: {REGENERATE}"

    def test_declared_metric_validates(self, registry, validate):
        catalogue.ROUTING_LOOKUPS.inc(kind="multibit-trie", outcome="hit")
        catalogue.TTA_RUN_SECONDS.observe(0.1, backend="compiled")
        assert validate(registry.snapshot()) == []

    def test_label_outside_its_domain_fails(self, registry, validate):
        catalogue.ROUTING_LOOKUPS.inc(kind="treee", outcome="hit")
        assert validate(registry.snapshot())

    def test_undeclared_metric_fails(self, registry, validate):
        registry.counter("made_up_total", "not in the catalogue").inc()
        assert validate(registry.snapshot())

    def test_label_names_are_pinned(self, registry, validate):
        registry.counter("routing_lookups_total",
                         "longest-prefix-match lookups",
                         ("outcome", "kind")).inc(kind="cam", outcome="hit")
        assert validate(registry.snapshot())

    def test_catalogue_imports_no_subsystem(self):
        probe = ("import sys, repro.obs.catalogue; print(sorted({name for "
                 "name in sys.modules if name.startswith('repro.')}))")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        loaded = subprocess.run([sys.executable, "-c", probe],
                                env=dict(os.environ, PYTHONPATH=src),
                                check=True, capture_output=True,
                                text=True).stdout
        for package in ("repro.routing", "repro.service", "repro.verify",
                        "repro.faults"):
            assert f"'{package}" not in loaded, loaded
