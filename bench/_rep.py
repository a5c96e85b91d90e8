"""One benchmark rep, run as a fresh child process by ``run.py``.

Usage: ``python bench/_rep.py STAMP [--trace SPANS] -- CLI_ARGV...``

Imports ``repro.cli``, writes ``time.monotonic()`` at that moment to
STAMP (the parent stamped the spawn on the same clock), then runs
``repro.cli.main(CLI_ARGV)`` and exits with its status. With
``--trace`` the layer entry points are wrapped first and their spans
are written to SPANS when the command returns.
"""

import os
import sys
import time

# Import benchmark modules as the ``bench`` package: bench/ itself on
# the path would let bench/trace.py shadow the standard library's trace.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    separator = sys.argv.index("--")
    stamp_path, *options = sys.argv[1:separator]
    argv = sys.argv[separator + 1:]
    import repro.cli
    imported = time.monotonic()
    with open(stamp_path, "w", encoding="utf-8") as handle:
        handle.write(repr(imported))
    tracer = None
    if options:
        from bench.trace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return repro.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump(options[1])


if __name__ == "__main__":
    sys.exit(main())
