"""Cold start: the CLI loads the Table-1 engine and nothing else.

Packages export lazily and the facade imports each peripheral subsystem
inside the function that uses it, so ``import repro.cli`` and a default
``table1`` run leave every other subsystem, and the process-pool
machinery, unloaded. Each probe runs in a fresh interpreter.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

#: modules a default table1 never executes
PERIPHERAL = (
    "repro.conformance", "repro.service", "repro.dse.sdc",
    "repro.dse.lookup_sweep", "repro.dse.explorer", "repro.router.network",
    "repro.faults.scenario", "repro.pcap", "repro.programs.cycle_model",
    "repro.tta.compiled", "multiprocessing", "concurrent.futures",
)

#: runs the CLI (no argv: import only), then prints every loaded module
_PROBE = """
import contextlib, io, sys
import repro.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(sys.argv[1:]) == 0
print(*sorted(sys.modules))
"""


def loaded_modules(*argv: str) -> set:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_NO_METRICS="1")
    result = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                            env=env, check=True, capture_output=True,
                            text=True)
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_peripheral_subsystem():
    loaded = loaded_modules()
    assert "repro.dse.campaign" in loaded
    assert loaded.isdisjoint(PERIPHERAL), sorted(loaded & set(PERIPHERAL))


def test_default_table1_loads_no_peripheral_subsystem():
    loaded = loaded_modules("table1", "--backend", "interpreter")
    assert "repro.tta.simulator" in loaded
    assert loaded.isdisjoint(PERIPHERAL), sorted(loaded & set(PERIPHERAL))


def test_pooled_and_compiled_table1_load_what_they_need():
    small = ("table1", "--entries", "20", "--packets", "4")
    assert {"multiprocessing", "concurrent.futures"} \
        <= loaded_modules(*small, "--jobs", "2")
    assert "repro.tta.compiled" \
        in loaded_modules(*small, "--backend", "compiled")
