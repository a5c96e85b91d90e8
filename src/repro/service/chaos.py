"""Service-level chaos: prove the campaign service heals itself.

The link-level chaos scenario (:mod:`repro.faults.scenario`) attacks the
*simulated* network; this harness attacks the *service* — worker
processes, cache entries, journals, and the service process itself — and
asserts the one contract that matters: **every fetched result is
byte-identical to a clean sequential run**, every induced fault is
visible in counters, and the cache actually pays for itself.

Phases (each compares records + render against the clean baseline):

1. ``cold-service``  — no faults; a plain service run populates the cache;
2. ``warm-cache``    — the same sweep resubmitted; must be all cache hits
   and at least ``speedup_floor`` times faster than the cold run;
3. ``cache-corruption`` — one cache entry bit-flipped, another truncated;
   both must be detected, quarantined, and recomputed;
4. ``worker-kill``   — one worker dies (``os._exit``) mid-sweep; the pool
   is rebuilt, the victim configuration re-probed, the pool shrunk;
5. ``worker-stall``  — one worker sleeps past the stall deadline; the
   sweep engine terminates the pool and the probe machinery recovers;
6. ``crash-restart`` — the service "dies" mid-job (journal cut short with
   a torn tail record, job left ``running``); a fresh service instance
   recovers the job and resumes it from the journal;
7. ``obs-visibility`` — every fault injected above must have left a trace
   in the process-wide metrics registry (skipped when metrics are
   disabled; the per-phase instance counters above still apply).

All faults are seeded and one-shot (sentinel files), so the harness is
deterministic in everything except wall-clock timings.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.dse.config import table1_configurations
from repro.dse.sweep import SupervisionPolicy, load_journal
from repro.faults.process import ChaosEvaluatorFactory, corrupt_file, \
    truncate_file
from repro.obs import catalogue, get_registry
from repro.service.jobs import CampaignService

DEFAULT_SPEEDUP_FLOOR = 5.0


@dataclass
class ChaosPhase:
    """Outcome of one chaos phase."""

    name: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        verdict = "ok" if self.passed else "FAILED"
        detail = ", ".join(f"{k}={v}" for k, v in sorted(
            self.details.items()))
        return f"{self.name:<18} {verdict:<7} {detail}"


@dataclass
class ServiceChaosReport:
    """What the chaos campaign proved (or failed to prove)."""

    phases: List[ChaosPhase]
    cold_seconds: float
    warm_seconds: float
    speedup_floor: float

    @property
    def speedup(self) -> float:
        return self.cold_seconds / self.warm_seconds \
            if self.warm_seconds > 0 else float("inf")

    @property
    def passed(self) -> bool:
        return all(phase.passed for phase in self.phases)

    def render(self) -> str:
        lines = ["service chaos campaign:"]
        for phase in self.phases:
            lines.append("  " + phase.render())
        lines.append(
            f"  warm-cache speedup: {self.speedup:.1f}x "
            f"(cold {self.cold_seconds:.3f}s, warm {self.warm_seconds:.3f}s,"
            f" floor {self.speedup_floor:.1f}x)")
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "phases": [{"name": p.name, "passed": p.passed,
                        "details": p.details} for p in self.phases],
            "cold_seconds": self.cold_seconds,
            "warm_seconds": self.warm_seconds,
            "speedup": self.speedup,
            "speedup_floor": self.speedup_floor,
            "passed": self.passed,
        }


def _matches_baseline(document: Dict[str, object],
                      baseline_records: List[Dict[str, object]],
                      baseline_render: str) -> bool:
    """The byte-identity contract: journal records and rendered artifact
    (both deliberately free of resume/cache bookkeeping) must match."""
    return document["result"]["records"] == baseline_records \
        and document["render"] == baseline_render


def run_service_chaos(root: str, *,
                      entries: int = 10,
                      packets: int = 2,
                      jobs: int = 2,
                      seed: int = 0,
                      heartbeat_seconds: float = 0.5,
                      stall_seconds: float = 2.5,
                      speedup_floor: float = DEFAULT_SPEEDUP_FLOOR
                      ) -> ServiceChaosReport:
    """Run the full chaos campaign under *root* (a scratch directory)."""
    from repro.api import table1_campaign

    plan = {"entries": entries, "packets": packets}
    configs = table1_configurations()
    supervision = SupervisionPolicy(heartbeat_seconds=heartbeat_seconds)
    phases: List[ChaosPhase] = []

    # clean sequential ground truth: the command line's own Table-1 run
    # of the plan (no service, no cache, no pool)
    _, baseline = table1_campaign(**plan)
    baseline_records = baseline.records
    baseline_render = baseline.render()

    # -- phase 1: cold service run -------------------------------------------------
    main_root = os.path.join(root, "svc-main")
    service = CampaignService(main_root, jobs=jobs, seed=seed,
                              supervision=supervision)
    cold_id = service.submit(plan)
    t0 = time.perf_counter()
    service.run_pending()
    cold_seconds = time.perf_counter() - t0
    cold = service.fetch(cold_id)
    phases.append(ChaosPhase(
        "cold-service",
        _matches_baseline(cold, baseline_records, baseline_render),
        {"evaluated": len(configs),
         "cache_hits": cold["service"]["cache_hits"]}))

    # -- phase 2: warm cache must be hits-only and fast ----------------------------
    warm_id = service.submit(plan)
    t0 = time.perf_counter()
    service.run_pending()
    warm_seconds = time.perf_counter() - t0
    warm = service.fetch(warm_id)
    warm_ok = _matches_baseline(warm, baseline_records, baseline_render) \
        and warm["service"]["cache_hits"] == len(configs) \
        and cold_seconds >= speedup_floor * warm_seconds
    phases.append(ChaosPhase(
        "warm-cache", warm_ok,
        {"cache_hits": warm["service"]["cache_hits"],
         "speedup": f"{cold_seconds / max(warm_seconds, 1e-9):.1f}x"}))

    # -- phase 3: corrupt + truncate cache entries ---------------------------------
    cache = service.last_runner.cache
    victims = [cache.entry_path(record["key"])
               for record in baseline_records[:2]]
    corrupt_file(victims[0], seed=seed)
    truncate_file(victims[1], keep_fraction=0.5)
    heal_id = service.submit(plan)
    service.run_pending()
    healed = service.fetch(heal_id)
    corrupt_seen = healed["service"]["cache_corrupt"]
    phases.append(ChaosPhase(
        "cache-corruption",
        _matches_baseline(healed, baseline_records, baseline_render)
        and corrupt_seen == 2
        and healed["service"]["cache_hits"] == len(configs) - 2,
        {"corrupt_detected": corrupt_seen,
         "recomputed": len(configs) - healed["service"]["cache_hits"]}))

    # -- phase 4: kill a worker mid-sweep ------------------------------------------
    kill_root = os.path.join(root, "svc-kill")
    kill_service = CampaignService(
        kill_root, jobs=max(jobs, 2), seed=seed, supervision=supervision,
        evaluator_wrapper=lambda inner: ChaosEvaluatorFactory(
            inner, sentinel_dir=os.path.join(kill_root, "sentinels"),
            kill_config=configs[len(configs) // 2]))
    kill_id = kill_service.submit(plan)
    kill_service.run_pending()
    killed = kill_service.fetch(kill_id)
    phases.append(ChaosPhase(
        "worker-kill",
        _matches_baseline(killed, baseline_records, baseline_render)
        and killed["service"]["worker_crashes"] >= 1
        and killed["service"]["pool_shrinks"] >= 1,
        {"worker_crashes": killed["service"]["worker_crashes"],
         "pool_shrinks": killed["service"]["pool_shrinks"],
         "final_pool_size": killed["service"]["final_pool_size"]}))

    # -- phase 5: stall a worker past the stall deadline ---------------------------
    stall_root = os.path.join(root, "svc-stall")
    stall_service = CampaignService(
        stall_root, jobs=max(jobs, 2), seed=seed,
        supervision=supervision,
        evaluator_wrapper=lambda inner: ChaosEvaluatorFactory(
            inner, sentinel_dir=os.path.join(stall_root, "sentinels"),
            stall_config=configs[len(configs) // 3],
            stall_seconds=stall_seconds))
    stall_id = stall_service.submit(plan)
    stall_service.run_pending()
    stalled = stall_service.fetch(stall_id)
    phases.append(ChaosPhase(
        "worker-stall",
        _matches_baseline(stalled, baseline_records, baseline_render)
        and stalled["service"]["stalls"] >= 1,
        {"stalls": stalled["service"]["stalls"]}))

    # -- phase 6: service crash mid-job, restart, resume ---------------------------
    crash_root = os.path.join(root, "svc-crash")
    crash_service = CampaignService(crash_root, jobs=1, seed=seed,
                                    supervision=supervision)
    crash_id = crash_service.submit(plan)
    # run the first third of the sweep directly against the job's
    # journal, then die: the journal holds a clean prefix...
    partial_runner = crash_service._make_runner(
        crash_service.status(crash_id))
    partial_runner.run(configs[:len(configs) // 3])
    # ...plus a torn tail record (the crash hit mid-append)...
    journal = crash_service._journal_path(crash_id)
    clean_records = len(load_journal(journal)[0])
    with open(journal, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "key": "torn-mid-wr')
    # ...and the job file still says "running"
    crashed_job = crash_service.status(crash_id)
    crashed_job.state = "running"
    crash_service._save(crashed_job)

    restarted = CampaignService(crash_root, jobs=1, seed=seed,
                                supervision=supervision)
    recovered = restarted.recover()
    restarted.run_pending()
    resumed = restarted.fetch(crash_id)
    phases.append(ChaosPhase(
        "crash-restart",
        _matches_baseline(resumed, baseline_records, baseline_render)
        and recovered == [crash_id]
        and resumed["result"]["resumed"] == clean_records
        and resumed["result"]["discarded_records"] == 1,
        {"recovered_jobs": len(recovered),
         "resumed_evaluations": resumed["result"]["resumed"],
         "torn_records_discarded":
             resumed["result"]["discarded_records"]}))

    # -- phase 7: every induced fault must be observable ---------------------------
    registry = get_registry()
    if registry.enabled:
        snapshot = registry.snapshot()
        counters = snapshot["counters"]

        def total(metric: catalogue.Metric, **labels: str) -> float:
            entry = counters.get(metric.name)
            if entry is None:
                return 0.0
            return sum(
                sample["value"] for sample in entry["values"]
                if all(sample["labels"].get(k) == v
                       for k, v in labels.items()))

        observed = {
            "worker_crashes": total(catalogue.DSE_WORKER_CRASHES),
            "stalls": total(catalogue.DSE_WORKER_STALLS),
            "cache_corrupt": total(catalogue.SERVICE_CACHE_REQUESTS,
                                   result="corrupt"),
            "cache_quarantined": total(catalogue.SERVICE_CACHE_QUARANTINED),
            "recovered_jobs": total(catalogue.SERVICE_RECOVERED_JOBS),
            "pool_shrinks": total(catalogue.DSE_POOL_SHRINKS),
        }
        phases.append(ChaosPhase(
            "obs-visibility",
            observed["worker_crashes"] >= 1 and observed["stalls"] >= 1
            and observed["cache_corrupt"] >= 2
            and observed["cache_quarantined"] >= 2
            and observed["recovered_jobs"] >= 1
            and observed["pool_shrinks"] >= 1,
            observed))
    else:
        phases.append(ChaosPhase("obs-visibility", True,
                                 {"skipped": "metrics disabled"}))

    return ServiceChaosReport(phases=phases, cold_seconds=cold_seconds,
                              warm_seconds=warm_seconds,
                              speedup_floor=speedup_floor)
