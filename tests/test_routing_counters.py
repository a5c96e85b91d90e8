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

PINNED = ("routing_lookups_total", "routing_lookup_steps_total",
          "routing_cam_busy_cycles_total",
          "routing_corruption_detected_total",
          "routing_degraded_lookups_total")

MEMORY_SWEEP = {
    ("routing_cam_busy_cycles_total", ""): 6480,
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
    ("routing_lookup_steps_total", "kind=balanced-tree"): 7754,
    ("routing_lookup_steps_total", "kind=bloom"): 4312,
    ("routing_lookup_steps_total", "kind=cam"): 1434,
    ("routing_lookup_steps_total", "kind=multibit-trie"): 11208,
    ("routing_lookup_steps_total", "kind=sequential"): 31410,
    ("routing_lookups_total", "kind=balanced-tree,outcome=hit"): 1080,
    ("routing_lookups_total", "kind=bloom,outcome=hit"): 2040,
    ("routing_lookups_total", "kind=cam,outcome=hit"): 1080,
    ("routing_lookups_total", "kind=multibit-trie,outcome=hit"): 2040,
    ("routing_lookups_total", "kind=sequential,outcome=hit"): 1080,
}

CAM_TABLE1_ROWS = {
    ("routing_cam_busy_cycles_total", ""): 648,
    ("routing_lookup_steps_total", "kind=cam"): 108,
    ("routing_lookup_steps_total", "kind=sequential"): 10800,
    ("routing_lookups_total", "kind=cam,outcome=hit"): 108,
    ("routing_lookups_total", "kind=sequential,outcome=hit"): 108,
}


def pinned_counters(action):
    """``{(name, "label=value,..."): total}`` of the pinned counters
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
            for name in PINNED if name in counters
            for item in counters[name]["values"]}


def test_memory_sweep_counters_over_all_kinds():
    """Every kind under every protection: bare and wrapped lookups,
    detections, degraded answers and CAM occupancy."""
    assert pinned_counters(lambda: api.memory_sdc_sweep(
        prefixes=60, lookups=40, trials=8, jobs=1)) == MEMORY_SWEEP


def test_default_table1_cam_rows_counters():
    """The RTU's per-address CAM searches and the sequential reference
    the forwarding check scans."""
    assert pinned_counters(
        lambda: api.table1(kinds=("cam",))) == CAM_TABLE1_ROWS
