"""Fault injection and resilience experiments for the router network.

The perfect-world simulation in :mod:`repro.router.network` becomes a
resilience testbed: seeded per-link :class:`FaultModel` (drop, bit-flip
corruption, duplication, reordering, latency + jitter), scripted
:class:`FlapSchedule` link outages, a :class:`SimulationWatchdog` that
explains non-convergence, and a :class:`ChaosScenario` runner that
composes them and reports a :class:`ResilienceReport`.

Below the network sits the processor datapath: the
:class:`DatapathFaultInjector` flips bits in bus transports, FU
operand/trigger/result latches, and socket decodes of the cycle-accurate
TTA simulator, feeding the differential oracle in :mod:`repro.verify`.
All randomness derives from one root seed via :mod:`repro.faults.seeds`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".control": ("ATTACK_KINDS", "AdversarialRipngAdvertiser",
                 "AssaultReport", "ControlPlaneAssault",
                 "control_plane_drops"),
    ".datapath": ("FAULT_SITES", "DatapathFault", "DatapathFaultInjector"),
    ".flaps": ("FlapEvent", "FlapSchedule"),
    ".memory": ("ENTRY_BITS", "ENTRY_BYTES", "MEMORY_SITES", "MemoryFault",
                "MemoryFaultInjector", "corrupt_entry", "pack_entry",
                "unpack_entry_raw"),
    ".model": ("FaultModel", "FaultStatistics"),
    ".process": ("ChaosEvaluatorFactory", "corrupt_file", "truncate_file"),
    ".scenario": ("ChaosScenario", "ResilienceReport",
                  "advertised_prefixes"),
    ".seeds": ("SEED_STRIDE", "derive_seed", "make_rng", "spread_seed"),
    ".watchdog": ("SimulationWatchdog", "WatchdogDiagnosis"),
})
