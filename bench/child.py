"""One traced cold-start operation, in a fresh interpreter.

Usage: ``child.py SPANS_JSON SPAWN_TS ARGV...``.  Times the interpreter
start (from the parent's ``SPAWN_TS`` on the same monotonic clock),
``import numpy`` and ``import tpadlab.cli``, then runs
``tpadlab.cli.main(ARGV)`` under the span tracer and writes the import
times and the spans to ``SPANS_JSON``.  Exits with main's exit code.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

_t = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_S = time.perf_counter() - _t
_t = time.perf_counter()
import tpadlab.cli  # noqa: E402

TPADLAB_S = time.perf_counter() - _t

from tracing import Tracer  # noqa: E402


def main():
    spans_file, spawn_ts, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tpadlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    spans, counts = tracer.take()
    imports = {
        "interpreter_ms": 1e3 * (STARTED - spawn_ts),
        "numpy_ms": 1e3 * NUMPY_S,
        "tpadlab_ms": 1e3 * TPADLAB_S,
    }
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump({"imports": imports, "spans": spans, "counts": counts}, handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
