"""Backend selection: how callers pick a simulation engine.

Every evaluation path in the repo — :func:`repro.programs.runner.run_forwarding`,
the DSE evaluator, the campaign/service runners, and the CLI's
``--backend`` flag — constructs its simulator through
:func:`create_simulator`, which looks the name up in :data:`BACKENDS`.

``interpreter``
    The reference cycle-accurate loop (:class:`repro.tta.simulator.Simulator`).
    Supports every observation hook; the semantics oracle.

``compiled``
    The pre-decoded fast path (:class:`repro.tta.compiled.CompiledSimulator`).
    Bit-identical reports, ~4x faster simulation (E11 in
    ``EXPERIMENTS.md``); silently falls back to the interpreter whenever
    a hook is attached.

``auto`` resolves to the fastest backend that can honour the run — today
that is ``compiled``, whose own hook check makes it universally safe.
The conservative *default* stays ``interpreter`` so existing callers see
byte-for-byte the behaviour they always had unless they opt in.
"""

from __future__ import annotations

import importlib
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.tta.memory import ProgramMemory
from repro.tta.processor import TacoProcessor
from repro.tta.simulator import Simulator

BACKEND_INTERPRETER = "interpreter"
BACKEND_COMPILED = "compiled"
BACKEND_AUTO = "auto"

#: what callers get when they do not choose (``None`` anywhere in the
#: stack resolves to this)
DEFAULT_BACKEND = BACKEND_INTERPRETER

#: every simulation engine by name, reference first: the module and the
#: class that implement it, imported by the first simulator it creates
BACKENDS: Dict[str, Tuple[str, str]] = {
    BACKEND_INTERPRETER: ("repro.tta.simulator", "Simulator"),
    BACKEND_COMPILED: ("repro.tta.compiled", "CompiledSimulator"),
}


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Map ``None``/``"auto"`` onto a concrete backend name; unknown
    names are a :class:`ConfigurationError`."""
    if name is None:
        return DEFAULT_BACKEND
    if name == BACKEND_AUTO:
        return BACKEND_COMPILED
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulator backend {name!r}; "
            f"choose one of {sorted(BACKENDS) + [BACKEND_AUTO]}")
    return name


def create_simulator(processor: TacoProcessor, program: ProgramMemory,
                     strict: bool = True,
                     backend: Optional[str] = None) -> Simulator:
    """The one construction point for simulators across the repo."""
    module, name = BACKENDS[resolve_backend_name(backend)]
    factory = getattr(importlib.import_module(module), name)
    return factory(processor, program, strict=strict)
