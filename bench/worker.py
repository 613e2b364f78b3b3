"""The measured process: imports tpadlab, warms up, then runs operations.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and
one BLAS thread.  Its first statement takes the clock, so its import
times and its set-up time (from the parent's spawn timestamp until the
first timed operation could run) are its own.

``--mode setup`` stops once set-up is done; ``--mode run`` then runs
whole rounds of the manifest's operations, one at a time, for
``--seconds``.  Warm workloads call ``tpadlab.cli.main(argv)`` in this
process; ``cold-start`` starts one ``python -m tpadlab.cli`` child per
operation.  Every output is checked outside the timed region.  The
result is one JSON line on stdout.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

_t = time.perf_counter()
import numpy  # noqa: E402,F401

NUMPY_S = time.perf_counter() - _t
_t = time.perf_counter()
import tpadlab.cli as cli  # noqa: E402

TPADLAB_S = time.perf_counter() - _t

from checks import check  # noqa: E402
from tracing import LayerTotals, Tracer, layer_metrics  # noqa: E402

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


class Runner:
    """Runs operations and checks them; keeps failures and, when traced, layer totals."""

    def __init__(self, cold, tracer, workdir):
        self.cold = cold
        self.tracer = tracer
        self.workdir = workdir
        self.unexpected = []
        self.child_imports = []
        self.trace_log = []

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), None

    def _child(self, argv):
        spans_file = os.path.join(self.workdir, "child-spans.json") if self.tracer else None
        start = time.perf_counter()
        if spans_file:
            command = [sys.executable, CHILD, spans_file, repr(start), *argv]
        else:
            command = [sys.executable, "-m", "tpadlab.cli", *argv]
        proc = subprocess.run(command, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        traced = None
        if spans_file:
            with open(spans_file, encoding="utf-8") as handle:
                traced = json.load(handle)
            os.remove(spans_file)
        return elapsed, proc.returncode, proc.stdout, traced

    def run(self, op, totals=None, cold=None):
        """Run one operation; return its wall time and whether its check failed."""
        cold = self.cold if cold is None else cold
        elapsed, code, stdout, traced = (self._child if cold else self._in_process)(op["argv"])
        if self.tracer:
            if traced:
                self.child_imports.append(traced["imports"])
                spans, counts = traced["spans"], traced["counts"]
            else:
                spans, counts = self.tracer.take()
            self.trace_log.append({"argv": op["argv"], "spans": spans, "counts": counts})
            if totals is not None:
                totals.add(spans, counts)
        reason = check(op["check"], code, stdout)
        if reason and not op.get("known_fault"):
            self.unexpected.append(f"{' '.join(op['argv'])}: {reason}")
        return elapsed, reason is not None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    runner = Runner(manifest["workload"] == "cold-start", tracer, os.path.dirname(args.manifest))
    ops = manifest["ops"]
    for op in ops[: manifest["warmup"]]:
        runner.run(op)
    ready = time.perf_counter()
    result = {
        "setup_s": ready - args.spawn_ts,
        "imports": {
            "interpreter_ms": 1e3 * (STARTED - args.spawn_ts),
            "numpy_ms": 1e3 * NUMPY_S,
            "tpadlab_ms": 1e3 * TPADLAB_S,
        },
        "unexpected": runner.unexpected,
    }
    if args.mode == "run":
        totals = LayerTotals()
        durations, failed = [], 0
        deadline = ready + args.seconds
        while time.perf_counter() < deadline or len(durations) < manifest["min_ops"]:
            for op in ops:
                elapsed, did_fail = runner.run(op, totals)
                durations.append(elapsed)
                failed += did_fail
        usage = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
        result.update(
            durations=durations,
            failed=failed,
            peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
        )
        if tracer:
            probe = LayerTotals()
            for op in manifest["probe_ops"]:
                runner.run(op, probe, cold=False)
            result["layers"] = layer_metrics(totals, probe)
            result["child_imports"] = runner.child_imports
            with open(manifest["trace_out"], "w", encoding="utf-8") as handle:
                json.dump({"layers": result["layers"], "operations": runner.trace_log}, handle)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
