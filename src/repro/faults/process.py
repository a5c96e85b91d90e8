"""Process-level fault hooks: worker kills, stalls, and torn files.

The link-level (:mod:`repro.faults.model`) and datapath-level
(:mod:`repro.faults.datapath`) injectors attack the *simulated* system;
this module attacks the *execution substrate* the campaign service runs
on — worker processes and persisted state — so the service-level chaos
harness (:mod:`repro.service.chaos`) can prove recovery, not just hope
for it. Three fault families:

* :class:`ChaosEvaluatorFactory` — a picklable evaluator factory whose
  evaluators kill their own worker process (``os._exit``) or stall past
  a heartbeat deadline (``time.sleep``) on chosen configurations.
  "Once" semantics are kept across process boundaries with sentinel
  files: the first worker to reach the target config trips the fault and
  leaves a marker, so re-probes and retries then succeed — modelling a
  transient environmental fault (OOM kill, CPU starvation) rather than a
  deterministic crasher;
* :func:`corrupt_file` — seeded in-place bit flips, the model for disk
  bit rot in cache entries and journals;
* :func:`truncate_file` — cut a file short, the model for a torn write
  that an fsync'd rename would have prevented.

Everything is deterministic: bit flips derive from
:func:`repro.faults.seeds.derive_seed`, and sentinel files make the
kill/stall schedule independent of pool scheduling order.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from repro.errors import FaultInjectionError
from repro.faults.seeds import derive_seed, make_rng


class _ChaosEvaluator:
    """Evaluator wrapper that injects process-level faults on targets.

    Built by :class:`ChaosEvaluatorFactory` and copied into every pool
    worker; ``evaluate`` consults the sentinel directory before every injection
    so each fault fires at most once per campaign (across *all* workers,
    probes, and pool generations).
    """

    def __init__(self, evaluator, kill_key: Optional[str],
                 stall_key: Optional[str], stall_seconds: float,
                 sentinel_dir: str, exit_code: int):
        self.evaluator = evaluator
        self.kill_key = kill_key
        self.stall_key = stall_key
        self.stall_seconds = stall_seconds
        self.sentinel_dir = sentinel_dir
        self.exit_code = exit_code

    def _trip_once(self, kind: str) -> bool:
        """Atomically claim the one-shot fault *kind*; True if we won."""
        path = os.path.join(self.sentinel_dir, f"{kind}.tripped")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def evaluate(self, config, max_cycles=None):
        from repro.dse.campaign import config_key
        key = config_key(config)
        if self.kill_key is not None and key == self.kill_key \
                and self._trip_once("kill"):
            os._exit(self.exit_code)
        if self.stall_key is not None and key == self.stall_key \
                and self._trip_once("stall"):
            time.sleep(self.stall_seconds)
        return self.evaluator.evaluate(config, max_cycles=max_cycles)

    def __getattr__(self, name):
        # Same dunder guard as PoisonedEvaluator: pickle probes protocol
        # hooks before __dict__ exists, and forwarding them would recurse.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        evaluator = self.__dict__.get("evaluator")
        if evaluator is None:
            raise AttributeError(name)
        return getattr(evaluator, name)


class ChaosEvaluatorFactory:
    """Picklable factory of fault-injecting evaluators for pool workers.

    ``kill_config`` makes the first worker that evaluates it die with
    ``os._exit`` (a crash the pool sees as :class:`BrokenExecutor`, not
    a Python exception); ``stall_config`` makes the first worker that
    evaluates it sleep *stall_seconds* — long enough, by construction,
    to miss a supervised runner's heartbeat deadline. Both are one-shot
    via sentinel files under *sentinel_dir*, so the follow-up probe
    succeeds and the campaign can prove it recovered the result.
    """

    def __init__(self, inner_factory, *, sentinel_dir: str,
                 kill_config=None, stall_config=None,
                 stall_seconds: float = 5.0, exit_code: int = 13):
        if not callable(inner_factory):
            raise FaultInjectionError(
                "inner_factory must be a callable returning an evaluator")
        if kill_config is None and stall_config is None:
            raise FaultInjectionError(
                "ChaosEvaluatorFactory needs a kill_config and/or a "
                "stall_config to inject anything")
        from repro.dse.campaign import config_key
        self.inner_factory = inner_factory
        self.sentinel_dir = sentinel_dir
        self.kill_key = config_key(kill_config) \
            if kill_config is not None else None
        self.stall_key = config_key(stall_config) \
            if stall_config is not None else None
        self.stall_seconds = stall_seconds
        self.exit_code = exit_code
        os.makedirs(sentinel_dir, exist_ok=True)

    def __call__(self):
        return _ChaosEvaluator(self.inner_factory(), self.kill_key,
                               self.stall_key, self.stall_seconds,
                               self.sentinel_dir, self.exit_code)


def corrupt_file(path: str, *, seed: int, flips: int = 8,
                 stream: str = "file-corruption") -> int:
    """Flip *flips* seeded random bits of the file at *path* in place.

    Returns the number of bits actually flipped (less than *flips* only
    for an empty file). The flip positions derive from ``(seed, stream,
    path basename)``, so a chaos scenario corrupts the same bits on
    every machine.
    """
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    if not data:
        return 0
    rng = make_rng(derive_seed(seed, stream, os.path.basename(path)))
    flipped = 0
    for _ in range(flips):
        position = rng.randrange(len(data))
        data[position] ^= 1 << rng.randrange(8)
        flipped += 1
    with open(path, "wb") as handle:
        handle.write(data)
    return flipped


def truncate_file(path: str, *, keep_fraction: float = 0.5) -> int:
    """Cut the file at *path* to ``keep_fraction`` of its size in place.

    Models a torn write / interrupted download. Returns the number of
    bytes removed. ``keep_fraction`` must be in ``[0, 1)`` — keeping the
    whole file would inject nothing.
    """
    if not 0.0 <= keep_fraction < 1.0:
        raise FaultInjectionError(
            f"keep_fraction must be in [0, 1), got {keep_fraction}")
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    with open(path, "rb+") as handle:
        handle.truncate(keep)
    return size - keep
