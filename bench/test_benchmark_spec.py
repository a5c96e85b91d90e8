"""Self-test of the benchmark definition: ``python -m pytest bench``.

Checks BENCHMARK.json against the runner's workloads and the trace's
metric table, that every trace target still resolves in the program,
the self-time arithmetic, and compare.py's verdicts on synthetic data.
"""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import compare, run, trace  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in SPEC["workloads"] + metrics]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(metric["unit"]) for metric in metrics)
    assert all(metric["better"] in ("higher", "lower") for metric in metrics)


def test_metric_counts_and_bounds():
    end_to_end = SPEC["end_to_end"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    # set-up time is the noisiest metric, so it gets the largest bound
    assert bounds["setup_s"] == max(bounds.values())


def test_spec_matches_the_runner_and_the_trace():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] \
        == [name for name, *_ in trace.METRICS]


def test_every_layer_metric_moves_a_declared_metric_on_declared_workloads():
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    for name, _, moves, workloads in trace.METRICS:
        assert moves is None or moves in end_to_end, name
        assert set(workloads) <= set(WORKLOADS), name


def test_every_trace_target_resolves():
    for module, path, _, _ in trace.TARGETS:
        owner, attribute, original = trace.resolve(module, path)
        assert callable(original)


def test_a_missing_target_fails_loudly_by_name():
    with pytest.raises(trace.TraceTargetError,
                       match="repro.dse.sdc.synthesize_fibs"):
        trace.resolve("repro.dse.sdc", "synthesize_fibs")
    # a builtin counts only where the module still calls it
    with pytest.raises(trace.TraceTargetError, match="compile"):
        trace.resolve("repro.workload.fib", "compile")


def test_self_time_subtracts_children_and_nested_calls_are_fallbacks():
    spans = [
        ["tta.simulate", -1, 0.0, 1.0, 100],   # compiled run ...
        ["tta.simulate", 0, 0.2, 0.6, 100],    # ... falling back
        ["tta.compile_program", 0, 0.0, 0.1, None],
        ["tta.codegen", 2, 0.0, 0.05, None],
        ["cli.write_output", -1, 1.0, 1.2, None],
        ["dse.journal.fsync", 4, 1.1, 1.15, None],
        ["dse.journal.fsync", -1, 1.3, 1.4, None],
    ]
    metrics = trace.layer_metrics(spans, active_s=2.0)
    assert metrics["tta.simulate.self_pct"] == pytest.approx(45.0)
    assert metrics["tta.simulate.calls"] == 1
    assert metrics["tta.simulate.sim_cycles"] == 100
    assert metrics["tta.simulate.fallback_ratio"] == 1.0
    assert metrics["tta.simulate.cycles_per_s"] == pytest.approx(100 / 0.9)
    assert metrics["tta.compile_program.self_pct"] == pytest.approx(2.5)
    assert metrics["tta.codegen.cache_hit_ratio"] == 0.0
    # the --output document's fsync is not a journal fsync
    assert metrics["dse.journal.fsyncs"] == 1
    assert metrics["dse.journal.fsync_pct"] == pytest.approx(5.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(0.7)


def test_times_are_reported_at_the_reference_host_speed():
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for slowdown in (1.0, 1.8):
        rep = run.Rep(wall_s=1.0 * slowdown, setup_s=0.1 * slowdown,
                      rss_mb=30.0, problems=[],
                      reference_s=run.REFERENCE_S * slowdown)
        metrics = run.end_to_end(WORKLOADS["fib-build"], [rep], units)
        assert metrics["wall_s"]["median"] == pytest.approx(1.0)
        assert metrics["setup_s"]["median"] == pytest.approx(0.1)
        assert metrics["items_per_s"]["median"] == pytest.approx(15 / 0.9)
        assert metrics["peak_rss_mb"]["median"] == 30.0
        assert metrics["measured_wall_s"]["median"] == 1.0 * slowdown


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.0, 0.99, 1.01, 1.0], "lower", 0.1,
     "unchanged"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower", 0.1, "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "lower", 0.1,
     "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "higher", 0.1,
     "improved"),
    ([1.0, 1.5, 0.6, 1.1], [1.05, 1.4, 0.7, 1.0], "lower", 0.1,
     "unresolved"),
    # a wide parent spread still resolves when the change dominates
    ([1.0, 1.5, 0.6, 1.1], [0.3, 0.35, 0.32, 0.31], "lower", 0.1,
     "improved"),
    # a 5% drift within the bound that does not win nine pairs in ten
    ([1.0, 1.01, 0.99, 1.0], [1.05, 0.98, 1.04, 1.05], "lower", 0.1,
     "unchanged"),
    ([0.0], [0.0], "lower", 0.0, "unchanged"),
    ([0.0], [0.1], "lower", 0.0, "worse"),
    ([12.5], [10.0], "lower", 0.0, "improved"),
])
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected


def test_compare_flags_a_missing_workload_and_exits_nonzero(tmp_path):
    samples = {"samples": [1.0, 1.0, 1.0]}
    parent = {"workloads": {"fib-build": {"wall_s": samples}}}
    rows = compare.compare(parent, {"workloads": {}}, SPEC)
    assert rows[0][-1] == "missing"
    path = tmp_path / "sets.json"
    path.write_text(json.dumps({"sets": [parent, {"workloads": {}}]}))
    assert compare.main([str(path)]) == 1
    assert compare.main([]) == 2
