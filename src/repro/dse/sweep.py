"""One journaled sweep engine under every design-space sweep.

Every sweep in :mod:`repro.dse` — the Table 1 and explorer campaigns
(:mod:`repro.dse.campaign`, :mod:`repro.dse.parallel`), the datapath and
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
  :class:`~repro.errors.WorkerCrashError`. A supervisor
  (:mod:`repro.service.supervisor`) hooks in stall detection, probe
  deadlines, backoff and pool shrinking through the ``_heartbeat_seconds``
  / ``_handle_stall`` / ``_probe_timeout_seconds`` /
  ``_after_broken_generation`` seams;
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
import tempfile
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CampaignError, WorkerCrashError, WorkerStallError
from repro.obs import get_registry

JOURNAL_VERSION = 1


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
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.resumed = 0
        self.discarded_records = 0
        #: worker deaths observed (pool teardowns and convicted probes)
        self.worker_crashes = 0
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
        if self.jobs == 1:
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
        crasher can neither deadlock nor starve the sweep.
        """
        registry = get_registry()
        t0 = registry.time() if registry.enabled else 0.0
        self._busy_seconds = 0.0
        while pending:
            suspects = self._dispatch(pending)
            if suspects:
                self._after_broken_generation(suspects)
            pending = [(key, item) for key, item in pending
                       if key not in self._records]
        if registry.enabled:
            wall = registry.time() - t0
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
        breaks (a worker died, or a supervisor declared a stall), the
        generation is settled in that same order after the pool is shut
        down: a finished chunk is persisted, and every item of an
        unfinished one is probed in its place.
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
                    if registry.enabled:
                        submitted_at[future] = registry.time()
                        registry.counter(
                            "dse_chunks_dispatched_total",
                            "chunks handed to the process pool").inc()
                if queue_depth is not None:
                    queue_depth.set(len(in_flight))
                if broken or not in_flight:
                    break
                done, _ = wait(in_flight,
                               timeout=self._heartbeat_seconds(),
                               return_when=FIRST_COMPLETED)
                if not done:
                    # heartbeat deadline passed with zero completions: a
                    # supervisor may declare the pool stalled (and
                    # terminate it); the unsupervised default keeps
                    # waiting
                    if self._handle_stall(pool, in_flight):
                        broken = stalled = True
                    continue
                for future in done:
                    index = in_flight.pop(future)
                    self._observe_chunk(future, submitted_at,
                                        chunk_seconds, registry)
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
                # a stall is counted by its supervisor, not as a crash
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
        a :class:`WorkerCrashError` failure; a probe that outlives the
        probe timeout (supervised runners only) is terminated and
        recorded as a :class:`WorkerStallError` failure.
        """
        timeout = self._probe_timeout_seconds()
        pool = self._pool(1)
        try:
            future = pool.submit(_measure_chunk, self.measure, [item])
            try:
                [record] = future.result(timeout=timeout)
            except FuturesTimeoutError:
                self._terminate_pool_processes(pool)
                record = self._failed_record(
                    item, WorkerStallError.__name__,
                    f"probe made no progress within {timeout}s and was "
                    f"terminated")
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

    def _observe_chunk(self, future, submitted_at, chunk_seconds,
                       registry) -> None:
        t0 = submitted_at.pop(future, None)
        if t0 is None or chunk_seconds is None:
            return
        elapsed = registry.time() - t0
        self._busy_seconds += elapsed
        chunk_seconds.observe(elapsed)

    # -- supervision seams (no-ops here; see repro.service.supervisor) ------------

    def _heartbeat_seconds(self) -> Optional[float]:
        """Longest silence (no chunk completion) tolerated before the
        stall handler is consulted; ``None`` waits forever."""
        return None

    def _probe_timeout_seconds(self) -> Optional[float]:
        """Wall-clock ceiling for a single-item probe; ``None`` waits
        forever (a probe can only end by completing or dying)."""
        return None

    def _handle_stall(self, pool: ProcessPoolExecutor,
                      in_flight: Dict[Future, int]) -> bool:
        """Called when a heartbeat deadline passes with zero completions.

        Return True to declare the pool stalled: the dispatcher then
        treats every unfinished chunk as a suspect (exactly like a worker
        death), and the handler is expected to have terminated the stuck
        workers. The base engine never declares a stall.
        """
        return False

    def _after_broken_generation(self, suspects: int) -> None:
        """Called once per pool generation that ended broken (crash or
        stall), after its suspects were resolved. Supervisors use this
        for backoff and pool shrinking; the base engine does nothing."""

    @staticmethod
    def _terminate_pool_processes(pool: ProcessPoolExecutor) -> int:
        """Best-effort SIGTERM of a pool's worker processes.

        Needed when workers are *stuck*, not dead: ``shutdown`` would
        join them (blocking on the very stall being escaped), so the
        supervisor kills them first and lets the executor observe the
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
