"""Content-addressed, integrity-checked evaluation cache.

Every campaign evaluation is a pure function of (workload namespace,
canonical configuration key) — the CRAM-lens observation applied to the
DSE layer: cached lookup state is a first-class, integrity-sensitive
structure, not a best-effort memo. The cache therefore persists journal
records (the same estimation-input records the crash-safe journal uses,
see :mod:`repro.dse.campaign`) under a content address derived from both
the namespace and the key, and refuses to *silently* serve damage:

* every entry carries a SHA-256 checksum of its canonical record line;
* a read verifies structure, version, key, namespace and checksum;
* any violation — torn JSON, truncation, bit rot, a record filed under
  the wrong key — is counted, the entry is **quarantined** (renamed to
  ``*.corrupt-N``, out of the lookup path but kept for forensics), and
  the caller simply recomputes;
* writes go through the fsync'd atomic-rename path, so a crash can
  never create a torn entry in the first place — quarantines indicate
  real external damage, not normal operation.

The namespace binds entries to the evaluation context (table entries,
packet batch, hazard detection, journal version): two services sweeping
different workloads never exchange records, even over a shared root.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

from repro.dse.sweep import JOURNAL_VERSION, write_atomic
from repro.errors import CacheIntegrityError
from repro.obs import get_registry

CACHE_VERSION = 1


def _canonical(payload: Dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def record_checksum(record: Dict[str, object]) -> str:
    """SHA-256 hex digest of a journal record's canonical JSON line."""
    return hashlib.sha256(_canonical(record).encode("utf-8")).hexdigest()


class EvaluationCache:
    """Persistent config-key → journal-record store with checksums.

    *namespace* is a JSON-ready dict describing everything besides the
    configuration that determines an evaluation's outcome (workload
    size, packet batch, hazard detection...). Records from one namespace
    are invisible to every other.

    Instance counters (``hits`` / ``misses`` / ``corrupt``) cover this
    object's lifetime; the same events are published to the process-wide
    metrics registry as ``service_cache_requests_total{result=...}`` and
    ``service_cache_quarantined_total``.
    """

    def __init__(self, root: str, namespace: Dict[str, object]):
        self.root = root
        self.namespace = dict(namespace)
        self.namespace["journal_v"] = JOURNAL_VERSION
        self.namespace["cache_v"] = CACHE_VERSION
        self._ns_line = _canonical(self.namespace)
        self._ns_digest = hashlib.sha256(
            self._ns_line.encode("utf-8")).hexdigest()[:16]
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        os.makedirs(self.root, exist_ok=True)

    # -- addressing ---------------------------------------------------------------

    def entry_path(self, key: str) -> str:
        """Content address of *key* within this namespace."""
        digest = hashlib.sha256(
            (self._ns_digest + "\n" + key).encode("utf-8")).hexdigest()
        return os.path.join(self.root, digest[:2], digest + ".json")

    # -- read/write ---------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The verified record for *key*, or ``None`` (miss or damage).

        Damage is never surfaced as a result: the corrupt entry is
        quarantined and ``None`` returned, so the caller recomputes and
        the next :meth:`put` heals the cache.
        """
        path = self.entry_path(key)
        try:
            # bytes, not text: bit rot can make an entry invalid UTF-8,
            # and that too must land in the quarantine path below
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            self.misses += 1
            self._count("miss")
            return None
        try:
            record = self._verify(raw, key)
        except CacheIntegrityError:
            self.corrupt += 1
            self._count("corrupt")
            self._quarantine(path)
            return None
        self.hits += 1
        self._count("hit")
        return record

    def put(self, key: str, record: Dict[str, object]) -> str:
        """Store *record* under *key*; returns the entry path."""
        if record.get("key") != key:
            raise CacheIntegrityError(
                f"record key {record.get('key')!r} does not match the "
                f"requested cache key {key!r}")
        path = self.entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {
            "v": CACHE_VERSION,
            "namespace": self.namespace,
            "key": key,
            "sha256": record_checksum(record),
            "record": record,
        }
        write_atomic(path, _canonical(entry) + "\n")
        return path

    # -- integrity ----------------------------------------------------------------

    def _verify(self, raw: bytes, key: str) -> Dict[str, object]:
        """Parse and authenticate one entry; raises on any violation."""
        try:
            entry = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # covers UnicodeDecodeError too
            raise CacheIntegrityError(f"unparseable entry: {exc}") from exc
        if not isinstance(entry, dict) or entry.get("v") != CACHE_VERSION:
            raise CacheIntegrityError("not a cache entry / wrong version")
        if entry.get("key") != key:
            raise CacheIntegrityError(
                "entry filed under the wrong key (hash collision or "
                "tampering)")
        if _canonical(entry.get("namespace", {})) != self._ns_line:
            raise CacheIntegrityError("entry from a different namespace")
        record = entry.get("record")
        if not isinstance(record, dict):
            raise CacheIntegrityError("entry carries no record")
        if record_checksum(record) != entry.get("sha256"):
            raise CacheIntegrityError("checksum mismatch (bit rot or a "
                                      "torn write)")
        if record.get("key") != key or "status" not in record:
            raise CacheIntegrityError("record does not match its entry")
        return record

    def _quarantine(self, path: str) -> None:
        """Move a damaged entry out of the lookup path, keeping it for
        forensics; a name clash (repeat damage) appends a counter."""
        for attempt in range(1000):
            target = f"{path}.corrupt-{attempt}"
            if not os.path.exists(target):
                try:
                    os.replace(path, target)
                except FileNotFoundError:
                    pass  # a concurrent reader already moved it
                break
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_cache_quarantined_total",
                "damaged cache entries moved aside for forensics").inc()

    @staticmethod
    def _count(result: str) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "service_cache_requests_total",
                "evaluation-cache lookups by result", ("result",)
            ).inc(result=result)
