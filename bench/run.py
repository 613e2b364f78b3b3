"""Benchmark of the tpadlab CLI: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: trial-reduce, spectrum-fit, design-sweep, cold-start (see
README.md).  The inputs are made from the seed, in this process, before
anything is timed.  The program runs in separate worker processes
(``worker.py``) with ``src`` on ``PYTHONPATH`` and one BLAS thread:
four that only set up, then one that sets up and runs whole rounds of
operations, one at a time, for S seconds.  Every output is checked.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer
ones, from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_UNITS  # noqa: E402
from workloads import TAIL_PERCENT, WORKLOADS, make_round, min_ops  # noqa: E402

SETUP_PROBES = 4  # set-up only processes, besides the one that runs
WARMUP_OPS = {"trial-reduce": 2, "spectrum-fit": 2, "design-sweep": 2, "cold-start": 1}
PROBE_OPS = 2  # per other warm workload, for layers a traced workload never reaches
TIME_LIMIT_MARGIN_S = 120  # workers past --seconds plus this are killed and the run fails
# One thread for BLAS: with two, fit_bvd's upper quartile reached 3x its
# median on a 2-vCPU host (README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Dropped from the workers' environment: tpadlab imports from cached
# bytecode, as an installed package does (the first worker in a fresh
# checkout writes it), and stdout is buffered as usual.
DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")


def _spawn(manifest, env, deadline, mode, seconds=0.0, trace=False):
    """Start a worker, wait for it (until ``deadline`` at most), and return its JSON result."""
    start = time.perf_counter()
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--manifest", manifest,
        "--spawn-ts", repr(start),
        "--mode", mode,
        "--seconds", repr(seconds),
    ] + (["--trace"] if trace else [])
    proc = subprocess.run(
        command, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, timeout=deadline - start
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median_imports(samples):
    return {f"import.{key}": statistics.median(s[key] for s in samples) for key in samples[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "tpadlab", "cli.py")):
        sys.exit("bench/run.py: no src/tpadlab here; run it from the root of a tpadlab checkout")

    work = os.path.relpath(os.path.join(HERE, "_work"))
    workdir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        ops = make_round(args.workload, args.seed, workdir)
        probe_ops = []
        if args.trace:
            for other in WORKLOADS:
                if other not in (args.workload, "cold-start"):
                    probe_ops += make_round(other, args.seed, os.path.join(workdir, other), PROBE_OPS)
        manifest = os.path.join(workdir, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "ops": ops,
                    "warmup": WARMUP_OPS[args.workload],
                    "min_ops": min_ops(args.workload),
                    "probe_ops": probe_ops,
                    "trace_out": os.path.join(work, f"trace-{args.workload}-{args.seed}.json"),
                },
                handle,
            )
        env = {key: value for key, value in os.environ.items() if key not in DROPPED_ENV}
        env.update(THREAD_ENV, PYTHONPATH=src)
        deadline = time.perf_counter() + args.seconds + TIME_LIMIT_MARGIN_S
        setups = [_spawn(manifest, env, deadline, "setup") for _ in range(SETUP_PROBES)]
        run = _spawn(manifest, env, deadline, "run", args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(run)
    durations = np.array(run["durations"])
    unexpected = [reason for r in setups for reason in r["unexpected"]]
    for reason in unexpected[:5]:
        print(f"bench: wrong output: {reason}", file=sys.stderr)
    if len(unexpected) > 5:
        print(f"bench: {len(unexpected) - 5} more wrong outputs", file=sys.stderr)
    if args.trace:
        cold = args.workload == "cold-start"
        metrics = _median_imports(run["child_imports"] if cold else [r["imports"] for r in setups])
        metrics.update(run["layers"])
        metrics["traced.op_p50_ms"] = 1e3 * float(np.median(durations))
        units = dict(LAYER_UNITS, **{name: "ms" for name in metrics if name not in LAYER_UNITS})
    else:
        metrics = {
            "ops_per_s": len(durations) / float(durations.sum()),
            "op_p50_ms": 1e3 * float(np.median(durations)),
            "op_tail_ms": 1e3 * float(np.percentile(durations, TAIL_PERCENT[args.workload])),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not unexpected,
        "attempted": len(durations),
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
