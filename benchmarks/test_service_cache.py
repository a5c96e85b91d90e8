"""E10 — extension: campaign service recovery overhead and cache payoff.

The self-healing campaign service (`repro.service`) promises two things
with a measurable cost model: faults cost a bounded amount of extra wall
clock (re-probe + pool refill, not a restart from zero), and the
content-addressed evaluation cache makes a repeated plan almost free.
This experiment runs the same Table 1 plan through one service spool
three ways — clean and cold, with a worker killed and a cache record
corrupted on disk, and warm — and reports all three wall clocks. Every
run must produce the byte-identical journal records and rendered
artifact of a plain sequential sweep.
"""

from __future__ import annotations

import time

from repro.dse import ArchitectureEvaluator, CampaignRunner, config_key
from repro.faults import ChaosEvaluatorFactory, corrupt_file
from repro.service import CampaignService
from repro.service.jobs import normalise_plan, plan_configs

PLAN = {"kind": "table1", "entries": 60, "packets": 6}
SPEEDUP_FLOOR = 5.0


def _run(service, plan=PLAN):
    job_id = service.submit(plan)
    started = time.perf_counter()
    service.run_pending()
    return service.fetch(job_id), time.perf_counter() - started


def test_service_recovery_and_cache(benchmark, tmp_path):
    configs = plan_configs(normalise_plan(PLAN))
    baseline = CampaignRunner(ArchitectureEvaluator(
        table_entries=PLAN["entries"],
        packet_batch=PLAN["packets"])).run(configs)

    # clean cold run: the service's baseline cost over a bare sweep
    root = str(tmp_path / "svc")
    service = CampaignService(root, jobs=2, sleep_fn=lambda s: None)
    clean, clean_seconds = benchmark.pedantic(
        _run, args=(service,), rounds=1, iterations=1)
    assert clean["result"]["records"] == baseline.records
    assert clean["render"] == baseline.render()

    # faulted run against the same spool: corrupt one cache entry on
    # disk, and kill the worker that re-evaluates it — the one
    # configuration the cache can no longer serve
    victim = configs[0]
    corrupt_file(service.last_runner.cache.entry_path(config_key(victim)),
                 seed=3)
    faulted_service = CampaignService(
        root, jobs=2, sleep_fn=lambda s: None,
        evaluator_wrapper=lambda inner: ChaosEvaluatorFactory(
            inner, sentinel_dir=str(tmp_path / "sentinels"),
            kill_config=victim))
    faulted, faulted_seconds = _run(faulted_service)
    assert faulted["result"]["records"] == baseline.records
    assert faulted["render"] == baseline.render()
    assert faulted["service"]["worker_crashes"] >= 1
    assert faulted["service"]["cache_corrupt"] == 1
    # recovery is incremental: every undamaged entry is a cache hit, so
    # only the quarantined configuration is re-simulated
    assert faulted["service"]["cache_hits"] == len(configs) - 1

    # warm run: every record served from the (healed) cache
    warm, warm_seconds = _run(service)
    assert warm["result"]["records"] == baseline.records
    assert warm["render"] == baseline.render()
    assert warm["service"]["cache_hits"] == len(configs)
    assert clean_seconds >= SPEEDUP_FLOOR * warm_seconds

    print(f"\nE10: service wall clock over {len(configs)} configurations "
          f"(entries={PLAN['entries']}, packets={PLAN['packets']}):")
    print(f"  clean cold run   {clean_seconds:8.3f} s")
    print(f"  kill+corruption  {faulted_seconds:8.3f} s "
          f"({faulted_seconds / clean_seconds:.2f}x of clean; "
          f"crashes={faulted['service']['worker_crashes']}, "
          f"corrupt={faulted['service']['cache_corrupt']}, "
          f"shrinks={faulted['service']['pool_shrinks']})")
    print(f"  warm cache       {warm_seconds:8.3f} s "
          f"({clean_seconds / max(warm_seconds, 1e-9):.1f}x faster "
          f"than cold)")
