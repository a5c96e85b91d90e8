"""The trial, outcome and injection counters the SDC sweeps publish, pinned.

The golden digests hash every ``--output`` document without its
``metrics`` section, so a change to how a sweep publishes its records
(which status, outcome or site a trial is counted under) would pass them
unseen. These totals were captured before the datapath and memory sweeps
shared one trial record and one tally; a change to either sweep must
leave every one of them as it is.
"""

from repro import api
from tests.test_routing_counters import pinned_counters

PINNED = ("sdc_trials_total", "sdc_outcomes_total", "sdc_injections_total",
          "sdc_memory_injections_total")

#: every datapath site, capped at two faults a trial: four of the five
#: outcome classes occur
DATAPATH_SWEEP = {
    ("sdc_injections_total", "site=bus"): 4,
    ("sdc_injections_total", "site=operand"): 3,
    ("sdc_injections_total", "site=result"): 4,
    ("sdc_injections_total", "site=socket"): 4,
    ("sdc_injections_total", "site=trigger"): 4,
    ("sdc_outcomes_total", "outcome=crash"): 2,
    ("sdc_outcomes_total", "outcome=detected"): 1,
    ("sdc_outcomes_total", "outcome=masked"): 4,
    ("sdc_outcomes_total", "outcome=sdc"): 3,
    ("sdc_trials_total", "status=ok"): 10,
}

MEMORY_SWEEP = {
    **{("sdc_memory_injections_total",
        f"memory_site={site},protection={protection}"): 2
       for site in ("bloom-bucket", "bloom-filter", "cam-row", "entry")
       for protection in ("checksum", "none", "parity")},
    ("sdc_outcomes_total", "outcome=detected"): 16,
    ("sdc_outcomes_total", "outcome=masked"): 6,
    ("sdc_outcomes_total", "outcome=sdc"): 2,
    ("sdc_trials_total", "status=ok"): 24,
}


def test_datapath_sweep_counters():
    configs = [api.ArchitectureConfiguration(bus_count=1,
                                             table_kind="sequential")]
    assert pinned_counters(lambda: api.sdc_sweep(
        configs, entries=8, packets=2, trials=2, seed=5, rate=0.05,
        max_faults=2), PINNED) == DATAPATH_SWEEP


def test_memory_sweep_counters():
    assert pinned_counters(lambda: api.memory_sdc_sweep(
        kinds=("sequential", "cam", "bloom"), prefixes=40, lookups=30,
        trials=2, seed=7), PINNED) == MEMORY_SWEEP
