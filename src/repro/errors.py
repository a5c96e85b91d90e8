"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class Ipv6Error(ReproError):
    """Malformed IPv6 address, header, or datagram."""


class ChecksumError(Ipv6Error):
    """A transport checksum failed verification."""


class RipngError(Ipv6Error):
    """Malformed or semantically invalid RIPng message."""


class RoutingTableError(ReproError):
    """Invalid routing-table operation (bad prefix, capacity exceeded...)."""


class TtaError(ReproError):
    """Errors in the TTA processor model (bad port, structural hazard...)."""


class AssemblyError(ReproError):
    """Errors while parsing, scheduling, or encoding TACO assembly."""


class EstimationError(ReproError):
    """Physical estimation was asked for an unsupported operating point."""


class ConfigurationError(ReproError):
    """An architecture configuration is structurally invalid."""


class FaultInjectionError(ReproError):
    """A fault-injection model or chaos scenario is misconfigured."""


class SimulationError(TtaError):
    """The cycle-accurate simulation detected an inconsistency.

    ``run`` optionally carries the partial/failed run artefact (a
    :class:`repro.programs.runner.ForwardingRunResult` or similar) so
    callers can diagnose a failure without re-simulating.
    """

    def __init__(self, message: str, *, run=None):
        super().__init__(message)
        self.run = run


class FunctionalMismatchError(SimulationError):
    """Simulated forwarding behaviour diverged from the golden model.

    Deterministic for a given configuration/workload: retrying cannot
    succeed, so campaign runners quarantine the configuration.
    """


class CycleBudgetError(SimulationError):
    """A program exceeded its cycle budget (did not halt in time).

    May be a genuinely runaway program or merely a budget set too low, so
    campaign runners retry once at a larger budget before quarantining.
    ``cycles`` is the budget that was exhausted, ``pc`` the program
    counter at the time, and ``loop`` an optional pc loop signature
    (see :mod:`repro.tta.hazards`). ``diagnosis`` is a human-readable
    watchdog verdict — the loop signature's rendering for a TTA run, or
    a :class:`repro.faults.watchdog.WatchdogDiagnosis` summary when the
    budget was exhausted at the network level — so hang classifiers
    (the differential oracle, campaign failure records) carry *why* the
    run spun, not just that it did.
    """

    def __init__(self, message: str, *, cycles: int = 0, pc: int = 0,
                 loop=None, run=None, diagnosis=None):
        super().__init__(message, run=run)
        self.cycles = cycles
        self.pc = pc
        self.loop = loop
        self.diagnosis = diagnosis


class ObservabilityError(ReproError):
    """A metrics instrument was misused (label/kind mismatch, negative
    counter increment...). Raised at the call site: instrument misuse is
    a programming error, never a runtime condition to tolerate."""


class ConformanceError(ReproError):
    """A conformance suite was misconfigured (unknown case, mutant,
    table kind...). Case *failures* are reported, never raised."""


class PcapError(ReproError):
    """A pcap file could not be read or written (bad magic, truncation)."""


class CampaignError(ReproError):
    """A design-space campaign is misconfigured or its journal is invalid."""


class WorkerCrashError(CampaignError):
    """A pool worker process died (signal, ``os._exit``, OOM kill...)
    while evaluating a configuration. Parallel campaigns quarantine the
    configuration and refill the pool instead of aborting the sweep."""


class WorkerStallError(CampaignError):
    """A pool worker stopped making progress: no chunk completed within
    the stall deadline. Every pooled sweep terminates the stalled pool,
    re-probes the in-flight items, and records this failure for any item
    that stalls its prober too."""


class ServiceError(ReproError):
    """The campaign service was misused (bad plan, unknown job, fetch of
    an unfinished job...) or hit an unrecoverable infrastructure fault."""


class JobNotFoundError(ServiceError):
    """No job with the requested id exists in the service root."""


class JobTimeoutError(ServiceError):
    """A job exceeded its wall-clock deadline. Progress up to the
    deadline is journalled, so a retried/resubmitted job resumes instead
    of starting over."""


class CacheIntegrityError(ServiceError):
    """An evaluation-cache entry failed its integrity check (torn write,
    bit rot, truncation). Raised only by strict readers; the cache
    itself quarantines the entry and recomputes transparently."""
