"""Traced stand-in for ``python -m filiform_ce.cli``.

Usage: ``python cli_shim.py SPANS_FILE VERB [ARGS...]``.  Times a fresh
import of ``filiform_ce.cli``, installs the same wrappers as the in-process
workloads, runs ``filiform_ce.cli.main`` on the remaining arguments and
writes the spans (plus the import time) to SPANS_FILE.  Exits with the
code ``main`` returns.
"""

from __future__ import annotations

import json
import sys
import time


def run(spans_file: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import filiform_ce.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.on = True
    try:
        code = filiform_ce.cli.main(argv)
    finally:
        tracer.on = False
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
