"""One journaled sweep engine under every design-space sweep.

Every sweep in :mod:`repro.dse` — the Table 1 and explorer campaigns
(:mod:`repro.dse.campaign`), the datapath and
memory SDC sweeps (:mod:`repro.dse.sdc`) and the lookup scaling sweep
(:mod:`repro.dse.lookup_sweep`) — is a plan of keyed items, each measured
independently into one JSON record. :class:`JournaledSweep` is the one
place that turns such a plan into records:

* **journal** — every record is appended to a JSONL journal and fsync'd,
  so a killed sweep loses at most the record being written. An existing
  journal is refused unless the sweep resumes it; on resume a torn final
  record is discarded and the journal compacted by atomic rename;
* **resume** — an item whose key is journalled is never measured again;
  it is counted under the runner's own ``*_resumed_total`` counter;
* **jobs == 1** — items are measured in this process, in plan order;
* **jobs > 1** — the plan is chunked and dispatched to a process pool
  over a bounded window of unfinished chunks. Finished chunks wait in a
  reorder buffer and are persisted in submission order, so the journal
  is byte-identical to a sequential run's. When a worker dies, every
  chunk the pool did not finish is a crash suspect: each of its items is
  re-run alone in a fresh single-worker pool, in its place in the plan,
  and an item that kills its prober too is recorded failed with
  :class:`~repro.errors.WorkerCrashError`;
* **supervision** — every pooled sweep runs under one
  :class:`SupervisionPolicy`. A pool that completes no chunk within the
  stall deadline is torn down like a crashed one, and a probe that
  outlives twice that deadline is recorded failed with
  :class:`~repro.errors.WorkerStallError`. Each broken generation
  shrinks the pool by one worker, down to ``min_jobs``, and backs off
  (capped, exponential, seeded jitter) before refilling it;
* **metrics** — each record's counters are published in the parent when
  it is persisted, never in a worker, so sequential, parallel and
  resumed sweeps account identically.

A runner supplies only what is specific to it: a picklable module-level
``measure(item, context) -> record`` that never raises for the failures
its sweep contains, ``_context_spec()`` naming the initializer that
builds ``context`` once per process, ``_failed_record(item, error,
message)``, ``_publish(record)``, and its own result assembly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError, WorkerCrashError, WorkerStallError
from repro.faults.seeds import derive_seed, make_rng
from repro.obs import get_registry

JOURNAL_VERSION = 1


# -- supervision policy ------------------------------------------------------------

#: the stall deadline grows to this many times the slowest chunk a runner
#: has seen, so a sweep of slow items is not mistaken for a hung one
STALL_LATENCY_FACTOR = 4
#: backoff before refilling a broken pool: min(cap, base * 2^(n-1)) for
#: the n-th broken generation, plus up to ``BACKOFF_JITTER`` of itself
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0
BACKOFF_JITTER = 0.25

#: ``(name, help)`` of the supervision metrics, declared here once
STALLS_METRIC = ("dse_worker_stalls_total",
                 "pools and probes terminated after a missed stall deadline")
POOL_SHRINKS_METRIC = ("dse_pool_shrinks_total",
                       "workers removed from the pool after broken "
                       "generations")
POOL_SIZE_METRIC = ("dse_pool_size",
                    "current worker-pool size after degradation")
BACKOFF_METRIC = ("dse_backoff_seconds_total",
                  "seconds slept before refilling broken pools")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How a pooled sweep treats workers that stop making progress."""

    #: floor of the stall deadline, the longest tolerated silence (no
    #: chunk completion); None disables stall detection. The default
    #: leaves room for a sweep's first slow chunks, before any has been
    #: timed: the default lookup sweep at four workers on two cores goes
    #: 32 s without a completion (EXPERIMENTS.md, E10)
    heartbeat_seconds: Optional[float] = 120.0
    #: wall-clock ceiling for one whole service job; None = unlimited
    job_timeout_seconds: Optional[float] = None
    #: shrink the pool by one worker after each broken generation, but
    #: never below this floor
    min_jobs: int = 1


def backoff_delay(attempt: int, rng: random.Random) -> float:
    """The pause before retry number *attempt* (1-based): exponential in
    the attempt, capped, plus seeded jitter so a fleet of retriers does
    not refill in lockstep."""
    delay = min(BACKOFF_CAP_SECONDS,
                BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
    return delay * (1.0 + BACKOFF_JITTER * rng.random())


# -- journal I/O -------------------------------------------------------------------


def write_atomic_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path* via fsync'd temp file + atomic rename.

    A crash at any point leaves either the old file or the new one —
    never a torn hybrid, and never a zero-length stub. The containing
    directory is fsync'd too, so the rename itself survives power loss.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".campaign-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_atomic(path: str, text: str) -> None:
    """Write *text* to *path* via fsync'd temp file + atomic rename."""
    write_atomic_bytes(path, text.encode("utf-8"))


def _record_line(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def load_journal(path: str) -> Tuple[List[Dict[str, object]], int]:
    """Parse a journal, tolerating a crash-torn *tail* record only.

    Returns ``(records, discarded)``. A crash while appending can tear at
    most the final line, so an unparseable or incomplete **last** line is
    an expected artifact: it is counted in *discarded* (and the item
    simply measured again). An invalid line anywhere **before** the last
    one cannot be produced by a crash — it means the journal itself is
    damaged (truncated editor save, disk corruption, concurrent writer)
    and silently re-measuring would mask data loss, so it raises
    :class:`~repro.errors.CampaignError` naming the bad line numbers.
    """
    records: List[Dict[str, object]] = []
    bad_lines: List[Tuple[int, str]] = []
    last_content_line = 0
    with open(path, encoding="utf-8") as handle:
        raw = handle.read()
    for number, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        last_content_line = number
        try:
            record = json.loads(line)
        except ValueError:
            bad_lines.append((number, "unparseable JSON"))
            continue
        if not isinstance(record, dict) or record.get("v") != JOURNAL_VERSION \
                or "key" not in record or "status" not in record:
            bad_lines.append((number, "not a journal record"))
            continue
        records.append(record)
    mid_file = [(n, why) for n, why in bad_lines if n != last_content_line]
    if mid_file:
        where = ", ".join(f"line {n}: {why}" for n, why in mid_file)
        raise CampaignError(
            f"journal {path!r} is damaged mid-file ({where}); a crash can "
            f"only tear the final record, so this is journal corruption, "
            f"not a crash artifact — repair or remove the journal before "
            f"resuming")
    return records, len(bad_lines)


def failed_record(identity: Dict[str, object], error: str,
                  message: str) -> Dict[str, object]:
    """A ``failed`` record carrying an item's identity fields."""
    return {**identity, "status": "failed", "error": error,
            "message": message}


# -- worker side -------------------------------------------------------------------


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the imported package);
    otherwise the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


_worker_context = None


def _init_worker(initializer, initargs) -> None:
    """Pool initializer: build the runner's context once per worker."""
    global _worker_context
    _worker_context = initializer(*initargs) if initializer else None


def _measure_chunk(measure, items: list) -> List[Dict[str, object]]:
    """Measure a chunk of items in a pool worker."""
    return [measure(item, _worker_context) for item in items]


#: a plan entry on its way through the pool: (journal key, item)
_Entry = Tuple[str, object]

_UNBUILT = object()


# -- the engine --------------------------------------------------------------------


class JournaledSweep:
    """Journal, resume and process-pool driver shared by every sweep.

    Subclasses set :attr:`measure` (wrapped in ``staticmethod``) and
    :attr:`resumed_metric`, implement :meth:`_failed_record` and usually
    :meth:`_publish` and :meth:`_context_spec`, and call :meth:`_sweep`
    with their plan.
    """

    #: ``measure(item, context) -> record``, a picklable module-level
    #: function that folds every failure its sweep contains into a record
    measure = None
    #: (name, help) of the counter that counts items replayed on resume
    resumed_metric: Tuple[str, str] = (
        "dse_resumed_total", "evaluations replayed from a journal")
    #: chunk size when the caller sets none; None aims for ~4 chunks per
    #: worker, coarse enough to amortise IPC and fine enough to keep the
    #: pool busy to the end
    default_chunk_size: Optional[int] = None

    def __init__(self, journal_path: Optional[str] = None,
                 resume: bool = False, jobs: int = 1,
                 chunk_size: Optional[int] = None):
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise CampaignError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.journal_path = journal_path
        #: current pool size; it shrinks under supervision, but a runner
        #: built with jobs > 1 always measures in a pool
        self.jobs = jobs
        self._pooled = jobs > 1
        self.chunk_size = chunk_size
        self.resumed = 0
        self.discarded_records = 0
        #: worker deaths observed (pool teardowns and convicted probes)
        self.worker_crashes = 0
        #: the policy pooled runs follow, and its injectable sleep and
        #: seeded jitter stream
        self.supervision = SupervisionPolicy()
        self.sleep_fn = time.sleep
        self.seed_backoff(0)
        #: pools and probes terminated after a missed stall deadline
        self.stalls = 0
        self.pool_shrinks = 0
        self._broken_generations = 0
        #: longest chunk latency seen so far; it stretches the stall
        #: deadline (see :meth:`_stall_deadline`)
        self.slowest_chunk_seconds = 0.0
        self._records: Dict[str, Dict[str, object]] = {}
        self._replayed_keys: set = set()
        self._context = _UNBUILT
        # cumulative worker-busy seconds (sum of chunk latencies), the
        # numerator of the pool-utilisation gauge published per sweep
        self._busy_seconds = 0.0
        if resume:
            if journal_path is None:
                raise CampaignError("resume requested without a journal")
            if os.path.exists(journal_path):
                records, self.discarded_records = load_journal(journal_path)
                for record in records:
                    self._records[record["key"]] = record
                self._replayed_keys = set(self._records)
                if self.discarded_records:
                    # Compact away the torn tail so the journal is clean
                    # before new records are appended after it.
                    write_atomic(journal_path, "".join(
                        _record_line(r) + "\n" for r in records))
        elif journal_path is not None and os.path.exists(journal_path) \
                and os.path.getsize(journal_path) > 0:
            raise CampaignError(
                f"journal {journal_path!r} already exists; resume it "
                f"(resume=True / --resume) or remove the file")

    # -- runner hooks -------------------------------------------------------------

    def _key(self, item) -> str:
        """The journal key of one plan item."""
        return item.key

    def _context_spec(self):
        """``(initializer, initargs)``: ``initializer(*initargs)`` builds
        the ``context`` argument of :attr:`measure`, once per process.
        The default is no context."""
        return None, ()

    def _failed_record(self, item, error: str,
                       message: str) -> Dict[str, object]:
        """The record of an item whose measurement failed outside the
        containment of :attr:`measure` (a dead or stalled worker)."""
        raise NotImplementedError

    def _publish(self, record: Dict[str, object]) -> None:
        """Publish the counters of one freshly persisted record."""

    def seed_backoff(self, seed: int) -> None:
        """Pin the jitter stream of the backoff between pool refills."""
        self._rng = make_rng(derive_seed(seed, "sweep-backoff"))

    # -- sweep driver -------------------------------------------------------------

    def _sweep(self, plan: Sequence) -> List[Dict[str, object]]:
        """Records for every item of *plan*, in plan order, measuring only
        the items the journal does not hold yet."""
        keys = [self._key(item) for item in plan]
        pending: List[_Entry] = []
        queued = set()
        for key, item in zip(keys, plan):
            if key in self._records:
                self._count_resumed(key)
            elif key not in queued:
                queued.add(key)
                pending.append((key, item))
        if not self._pooled:
            for key, item in pending:
                self._persist(key, self._measure_here(item))
        elif pending:
            self._run_pool(pending)
        return [self._records[key] for key in keys]

    def _measure_here(self, item) -> Dict[str, object]:
        """Measure one item in this process."""
        return self.measure(item, self._local_context())

    def _local_context(self):
        """This process's measurement context, built on first use."""
        if self._context is _UNBUILT:
            initializer, initargs = self._context_spec()
            self._context = initializer(*initargs) if initializer else None
        return self._context

    def _count_resumed(self, key: str) -> None:
        """Count a journal hit as resumed, once per replayed key."""
        if key not in self._replayed_keys:
            return
        self._replayed_keys.discard(key)
        self.resumed += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(*self.resumed_metric).inc()

    def _persist(self, key: str,
                 record: Dict[str, object]) -> Dict[str, object]:
        self._records[key] = record
        self._publish(record)
        self._append(record)
        return record

    def _append(self, record: Dict[str, object]) -> None:
        """Append one record to the journal and fsync it."""
        if self.journal_path is None:
            return
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(_record_line(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- pool orchestration -------------------------------------------------------

    def _run_pool(self, pending: List[_Entry]) -> None:
        """Drive *pending* to completion across pool generations.

        Each generation either finishes cleanly or breaks with a bounded
        set of suspects, which it resolves one by one in single-worker
        pools (crash -> failed record, success -> record). Every
        generation therefore makes strict progress, and a deterministic
        crasher or hung item can neither deadlock nor starve the sweep.
        """
        t0 = time.monotonic()
        self._busy_seconds = 0.0
        while pending:
            if self._dispatch(pending):
                self._degrade()
            pending = [(key, item) for key, item in pending
                       if key not in self._records]
        registry = get_registry()
        if registry.enabled:
            wall = time.monotonic() - t0
            if wall > 0:
                registry.gauge(
                    "dse_worker_utilization",
                    "fraction of pool worker-seconds spent evaluating "
                    "during the most recent sweep"
                ).set(min(self._busy_seconds / (wall * self.jobs), 1.0))

    def _dispatch(self, pending: List[_Entry]) -> int:
        """One pool generation; returns its number of crash suspects
        (0 = it ran clean).

        Finished chunks are persisted in submission order. If the pool
        breaks (a worker died, or no chunk completed within the stall
        deadline), the generation is settled in that same order after the
        pool is shut down: a finished chunk is persisted, and every item
        of an unfinished one is probed in its place.
        """
        registry = get_registry()
        chunk_seconds = registry.histogram(
            "dse_chunk_seconds",
            "wall-clock latency per dispatched pool chunk"
        ) if registry.enabled else None
        queue_depth = registry.gauge(
            "dse_inflight_chunks",
            "chunks dispatched to the pool and not yet completed"
        ) if registry.enabled else None
        chunks = self._chunked(pending)
        #: reorder buffer: chunk index -> records, until its turn comes
        finished: Dict[int, List[Dict[str, object]]] = {}
        #: submitted futures that have not completed -> chunk index
        in_flight: Dict[Future, int] = {}
        submitted_at: Dict[Future, float] = {}
        submitted = persisted = 0
        broken = stalled = False
        pool = self._pool(min(self.jobs, len(chunks)))
        try:
            while not broken and (submitted < len(chunks) or in_flight):
                # bounded window: at most two unfinished chunks per
                # worker, so a pool death voids little and suspects stay
                # few; finished chunks waiting in the buffer do not count
                while submitted < len(chunks) \
                        and len(in_flight) < 2 * self.jobs:
                    index = submitted
                    # a chunk the broken pool refuses is a suspect too
                    submitted += 1
                    try:
                        future = pool.submit(
                            _measure_chunk, self.measure,
                            [item for _, item in chunks[index]])
                    except BrokenExecutor:
                        broken = True
                        break
                    in_flight[future] = index
                    submitted_at[future] = time.monotonic()
                    if registry.enabled:
                        registry.counter(
                            "dse_chunks_dispatched_total",
                            "chunks handed to the process pool").inc()
                if queue_depth is not None:
                    queue_depth.set(len(in_flight))
                if broken or not in_flight:
                    break
                done, _ = wait(in_flight, timeout=self._stall_deadline(),
                               return_when=FIRST_COMPLETED)
                if not done:
                    # no completion within the stall deadline: the stuck
                    # workers are killed (a join would block on them) and
                    # their chunks settled like a dead worker's
                    self._count_stall()
                    self._terminate_pool_processes(pool)
                    broken = stalled = True
                    continue
                for future in done:
                    index = in_flight.pop(future)
                    elapsed = time.monotonic() - submitted_at.pop(future)
                    self._busy_seconds += elapsed
                    self.slowest_chunk_seconds = max(
                        self.slowest_chunk_seconds, elapsed)
                    if chunk_seconds is not None:
                        chunk_seconds.observe(elapsed)
                    exc = future.exception()
                    if isinstance(exc, BrokenExecutor):
                        broken = True
                    elif exc is not None:
                        # escaped the measure's own containment: the
                        # worker survived, so fail each item in place
                        finished[index] = [
                            self._failed_record(item, type(exc).__name__,
                                                str(exc))
                            for _, item in chunks[index]]
                    else:
                        finished[index] = future.result()
                while persisted in finished:
                    self._persist_chunk(chunks[persisted],
                                        finished.pop(persisted))
                    persisted += 1
            if broken and not stalled:
                self._count_crash()
        finally:
            if queue_depth is not None:
                queue_depth.set(0)
            pool.shutdown(wait=False, cancel_futures=True)
        suspects = 0
        for index in range(persisted, submitted):
            if index in finished:
                self._persist_chunk(chunks[index], finished.pop(index))
                continue
            for key, item in chunks[index]:
                self._probe(key, item)
                suspects += 1
        return suspects

    def _persist_chunk(self, chunk: List[_Entry],
                       records: List[Dict[str, object]]) -> None:
        for (key, _), record in zip(chunk, records):
            self._persist(key, record)

    def _probe(self, key: str, item) -> None:
        """Re-run one crash suspect alone in a fresh single-worker pool.

        A clean result clears the suspect; a second death convicts it as
        a :class:`WorkerCrashError` failure; a probe that outlives twice
        the stall deadline is terminated and recorded as a
        :class:`WorkerStallError` failure.
        """
        deadline = self._stall_deadline()
        timeout = None if deadline is None else 2 * deadline
        pool = self._pool(1)
        try:
            future = pool.submit(_measure_chunk, self.measure, [item])
            try:
                [record] = future.result(timeout=timeout)
            except FuturesTimeoutError:
                self._count_stall()
                self._terminate_pool_processes(pool)
                record = self._failed_record(
                    item, WorkerStallError.__name__,
                    "probe made no progress within twice the stall "
                    "deadline and was terminated")
            except BrokenExecutor as exc:
                self._count_crash()
                record = self._failed_record(
                    item, WorkerCrashError.__name__,
                    f"worker process died during the measurement: {exc}")
            except Exception as exc:
                record = self._failed_record(item, type(exc).__name__,
                                             str(exc))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        self._persist(key, record)

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        initializer, initargs = self._context_spec()
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(default_start_method()),
            initializer=_init_worker, initargs=(initializer, initargs))

    def _chunked(self, pending: Sequence[_Entry]) -> List[List[_Entry]]:
        size = self.chunk_size or self.default_chunk_size \
            or max(1, len(pending) // (self.jobs * 4))
        return [list(pending[i:i + size])
                for i in range(0, len(pending), size)]

    def _count_crash(self) -> None:
        self.worker_crashes += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "dse_worker_crashes_total",
                "pool teardowns after a worker process died").inc()

    # -- supervision --------------------------------------------------------------

    def _stall_deadline(self) -> Optional[float]:
        """Longest silence (no chunk completion) a pool may keep before it
        is declared stalled: the policy's heartbeat, stretched to
        ``STALL_LATENCY_FACTOR`` times the slowest chunk seen so far;
        ``None`` waits forever."""
        heartbeat = self.supervision.heartbeat_seconds
        if heartbeat is None:
            return None
        return max(heartbeat,
                   STALL_LATENCY_FACTOR * self.slowest_chunk_seconds)

    def _count_stall(self) -> None:
        self.stalls += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(*STALLS_METRIC).inc()

    def _degrade(self) -> None:
        """After a broken generation (crash or stall): shrink the pool by
        one worker, down to the policy's ``min_jobs``, then back off
        before refilling it."""
        registry = get_registry()
        self._broken_generations += 1
        if self.jobs > self.supervision.min_jobs:
            self.jobs -= 1
            self.pool_shrinks += 1
            if registry.enabled:
                registry.counter(*POOL_SHRINKS_METRIC).inc()
                registry.gauge(*POOL_SIZE_METRIC).set(self.jobs)
        delay = backoff_delay(self._broken_generations, self._rng)
        if registry.enabled:
            registry.counter(*BACKOFF_METRIC).inc(delay)
        self.sleep_fn(delay)

    @staticmethod
    def _terminate_pool_processes(pool: ProcessPoolExecutor) -> int:
        """Best-effort SIGTERM of a pool's worker processes.

        Needed when workers are *stuck*, not dead: ``shutdown`` would
        join them (blocking on the very stall being escaped), so they are
        killed first and lets the executor observe the
        deaths as a broken pool. Returns the number of processes
        signalled.
        """
        processes = getattr(pool, "_processes", None) or {}
        terminated = 0
        for process in list(processes.values()):
            try:
                process.terminate()
                terminated += 1
            except (OSError, ValueError):  # already dead / closed
                pass
        return terminated
