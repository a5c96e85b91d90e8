"""The routing counters a memory sweep and Table 1 publish, pinned.

The golden digests hash every ``--output`` document without its
``metrics`` section, so moving where a table publishes its lookup
accounting (the CAM's busy cycles, the integrity wrapper's detections)
would pass them unseen. These totals were captured before the
sequential table and the CAM answered lookups from an index; a change
to the lookup path must leave every one of them as it is.
"""

from repro import api
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.routing import TABLE_KINDS, make_table
from repro.workload.fib import synthesize_fib

PINNED = ("routing_lookups_total", "routing_lookup_steps_total",
          "routing_cam_busy_cycles_total",
          "routing_corruption_detected_total",
          "routing_degraded_lookups_total")

#: each kind replays its golden lookups once, not once per protection:
#: the lookup, step and CAM-busy totals are those of every trial plus
#: one golden replay per kind
MEMORY_SWEEP = {
    ("routing_cam_busy_cycles_total", ""): 6000,
    ("routing_corruption_detected_total",
     "kind=balanced-tree,protection=checksum"): 9,
    ("routing_corruption_detected_total",
     "kind=balanced-tree,protection=parity"): 32,
    ("routing_corruption_detected_total",
     "kind=bloom,protection=checksum"): 158,
    ("routing_corruption_detected_total",
     "kind=bloom,protection=parity"): 16,
    ("routing_corruption_detected_total",
     "kind=cam,protection=checksum"): 131,
    ("routing_corruption_detected_total",
     "kind=cam,protection=parity"): 49,
    ("routing_corruption_detected_total",
     "kind=multibit-trie,protection=checksum"): 94,
    ("routing_corruption_detected_total",
     "kind=multibit-trie,protection=parity"): 20,
    ("routing_corruption_detected_total",
     "kind=sequential,protection=checksum"): 59,
    ("routing_corruption_detected_total",
     "kind=sequential,protection=parity"): 8,
    ("routing_degraded_lookups_total",
     "kind=balanced-tree,protection=checksum"): 1,
    ("routing_degraded_lookups_total",
     "kind=balanced-tree,protection=parity"): 1,
    ("routing_degraded_lookups_total",
     "kind=bloom,protection=checksum"): 4,
    ("routing_degraded_lookups_total",
     "kind=cam,protection=checksum"): 4,
    ("routing_degraded_lookups_total",
     "kind=cam,protection=parity"): 2,
    ("routing_degraded_lookups_total",
     "kind=multibit-trie,protection=checksum"): 1,
    ("routing_degraded_lookups_total",
     "kind=multibit-trie,protection=parity"): 4,
    ("routing_degraded_lookups_total",
     "kind=sequential,protection=checksum"): 2,
    ("routing_lookup_steps_total", "kind=balanced-tree"): 7188,
    ("routing_lookup_steps_total", "kind=bloom"): 4152,
    ("routing_lookup_steps_total", "kind=cam"): 1354,
    ("routing_lookup_steps_total", "kind=multibit-trie"): 10774,
    ("routing_lookup_steps_total", "kind=sequential"): 29096,
    ("routing_lookups_total", "kind=balanced-tree,outcome=hit"): 1000,
    ("routing_lookups_total", "kind=bloom,outcome=hit"): 1960,
    ("routing_lookups_total", "kind=cam,outcome=hit"): 1000,
    ("routing_lookups_total", "kind=multibit-trie,outcome=hit"): 1960,
    ("routing_lookups_total", "kind=sequential,outcome=hit"): 1000,
}

CAM_TABLE1_ROWS = {
    ("routing_cam_busy_cycles_total", ""): 648,
    ("routing_lookup_steps_total", "kind=cam"): 108,
    ("routing_lookup_steps_total", "kind=sequential"): 10800,
    ("routing_lookups_total", "kind=cam,outcome=hit"): 108,
    ("routing_lookups_total", "kind=sequential,outcome=hit"): 108,
}


def pinned_counters(action, names=PINNED):
    """``{(name, "label=value,..."): total}`` of the counters in *names*
    *action* publishes into a fresh registry."""
    fresh = MetricsRegistry(enabled=True)
    previous = set_registry(fresh)
    try:
        action()
    finally:
        set_registry(previous)
    counters = fresh.snapshot()["counters"]
    return {(name, ",".join(f"{key}={value}" for key, value
                            in sorted(item["labels"].items()))):
            item["value"]
            for name in names if name in counters
            for item in counters[name]["values"]}


def test_memory_sweep_counters_over_all_kinds():
    """Every kind under every protection: bare and wrapped lookups,
    detections, degraded answers and CAM occupancy."""
    assert pinned_counters(lambda: api.memory_sdc_sweep(
        prefixes=60, lookups=40, trials=8, jobs=1)) == MEMORY_SWEEP


def golden_load_counters():
    """One bulk load of the sweep's FIB per kind: the update counters a
    sweep that writes no table outside its golden builds must show."""
    routes = synthesize_fib(60, seed=2026)
    expected = {}
    for kind in sorted(TABLE_KINDS):
        table = make_table(kind, capacity=len(routes) + 8)
        table.load(routes)
        expected[("routing_updates_total", f"kind={kind},op=insert")] = \
            table.stats.inserts
        expected[("routing_update_steps_total", f"kind={kind}")] = \
            table.stats.total_update_steps
    return expected


def sweep_update_counters(jobs):
    return pinned_counters(lambda: api.memory_sdc_sweep(
        prefixes=60, lookups=40, trials=8, jobs=jobs),
        names=("routing_updates_total", "routing_update_steps_total"))


def test_memory_sweep_writes_only_its_golden_tables():
    """A trial strikes a replica restored from its kind's checkpoint and
    writes no table, so the sweep's update counters are its golden
    builds alone: the parent loads the FIB once per kind."""
    assert sweep_update_counters(jobs=1) == golden_load_counters()


def test_memory_sweep_with_two_jobs_writes_only_its_golden_tables():
    """With a worker pool the parent still loads the FIB once per kind
    and no worker loads it again: the same counters as one job."""
    assert sweep_update_counters(jobs=2) == golden_load_counters()


def test_default_table1_cam_rows_counters():
    """The RTU's per-address CAM searches and the sequential reference
    the forwarding check scans."""
    assert pinned_counters(
        lambda: api.table1(kinds=("cam",))) == CAM_TABLE1_ROWS
