"""Spans around the public functions of each tpadlab module.

A span is wrapped around a function by replacing the module attribute
that callers look up, e.g. ``tpadlab.dataio.detect_drive_frequency``,
which both the CLI and ``summarize_trial`` resolve at call time.  Each
span records name, start, end, parent and optional annotations; spans of
one operation are kept in memory and written out when the run ends.

A few functions run once per grid point; they are counted, not spanned,
so that tracing does not swamp the sweep it measures.

Standard library only: the cold-start child installs it right after
timing its imports.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# module, attribute, span name, annotation
SPANS = (
    ("tpadlab.cli", "main", "cli.main", None),
    ("tpadlab.cli", "build_parser", "cli.build_parser", None),
    # every unit parser goes through _parse; cli keeps the public parsers
    # in a table built at import, out of reach of a wrapper
    ("tpadlab.units", "_parse", "units.parse", None),
    ("tpadlab.dataio", "load_traces_csv", "dataio.load_traces_csv", "bytes"),
    ("tpadlab.dataio", "summarize_trial", "dataio.summarize_trial", None),
    ("tpadlab.dataio", "detect_drive_frequency", "dataio.detect_drive_frequency", None),
    ("tpadlab.dataio", "amplitude_from_ldv", "dataio.amplitude_from_ldv", None),
    ("tpadlab.dataio", "real_power_from_traces", "dataio.real_power_from_traces", None),
    ("tpadlab.bvdfit", "load_impedance_csv", "bvdfit.load_impedance_csv", None),
    ("tpadlab.bvdfit", "fit_bvd", "bvdfit.fit_bvd", "iterations"),
    ("tpadlab.bvdfit", "initial_guess", "bvdfit.initial_guess", None),
    ("tpadlab.beam", "sweep_amplification", "beam.sweep_amplification", "points"),
)
COUNTS = (("tpadlab.beam", "amplification_number", "beam.amplification_number"),)


def _annotation(kind, args, result):
    if kind == "bytes":
        return os.path.getsize(args[0])
    if kind == "iterations":
        return result.iterations
    if kind == "points":
        return len(result)
    return None


class Tracer:
    """Records spans and call counts for one operation at a time.

    Span records are lists ``[name, start, end, parent, annotation]``
    with ``parent`` the index of the enclosing span in the same
    operation, or ``None``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _span(self, name, fn, kind):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._stack.pop()
            if kind:
                record[4] = _annotation(kind, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            print(f"tracing: {module_name}.{attr} not found; its layer reads 0", file=sys.stderr)
            return
        self._originals.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        for module_name, attr, name, kind in SPANS:
            self._replace(module_name, attr, lambda fn, name=name, kind=kind: self._span(name, fn, kind))
        for module_name, attr, name in COUNTS:
            self._replace(module_name, attr, lambda fn, name=name: self._count(name, fn))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def take(self):
        """Return this operation's ``(spans, counts)`` and start the next."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


class LayerTotals:
    """Per-name sums over many operations' spans and counts."""

    def __init__(self):
        self.ops = 0
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.reached: dict[str, int] = {}
        self.annotation: dict[str, float] = {}

    def add(self, spans, counts):
        self.ops += 1
        seen = set()
        for (name, start, end, _, note), own in zip(spans, self_times(spans)):
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_total[name] = self.self_total.get(name, 0.0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if note is not None:
                self.annotation[name] = self.annotation.get(name, 0) + note
            seen.add(name)
        for name, count in counts.items():
            self.calls[name] = self.calls.get(name, 0) + count
            seen.add(name)
        for name in seen:
            self.reached[name] = self.reached.get(name, 0) + 1

    def per_op(self, table, name):
        """``table[name]`` per operation that reached ``name``; 0 if none did."""
        reached = self.reached.get(name, 0)
        return table.get(name, 0) / reached if reached else 0.0


# per-layer metric: (name, span or count name, quantity); see layer_metrics
LAYER_METRICS = (
    ("cli.build_parser_ms", "cli.build_parser", "ms"),
    ("cli.self_ms_per_op", "cli.main", "self_ms"),
    ("units.ms_per_op", "units.parse", "ms"),
    ("dataio.load_traces_csv.ms_per_op", "dataio.load_traces_csv", "ms"),
    ("dataio.load_traces_csv.mb_per_s", "dataio.load_traces_csv", "mb_per_s"),
    ("dataio.summarize_trial.self_ms_per_op", "dataio.summarize_trial", "self_ms"),
    ("dataio.detect_drive_frequency.ms_per_op", "dataio.detect_drive_frequency", "ms"),
    ("dataio.detect_drive_frequency.calls_per_op", "dataio.detect_drive_frequency", "calls"),
    ("dataio.amplitude_from_ldv.ms_per_op", "dataio.amplitude_from_ldv", "ms"),
    ("dataio.real_power_from_traces.ms_per_op", "dataio.real_power_from_traces", "ms"),
    ("bvdfit.load_impedance_csv.ms_per_op", "bvdfit.load_impedance_csv", "ms"),
    ("bvdfit.fit_bvd.self_ms_per_op", "bvdfit.fit_bvd", "self_ms"),
    ("bvdfit.initial_guess.ms_per_op", "bvdfit.initial_guess", "ms"),
    ("bvdfit.fit_bvd.iterations_per_op", "bvdfit.fit_bvd", "notes"),
    ("bvdfit.fit_bvd.ms_per_iteration", "bvdfit.fit_bvd", "self_ms_per_note"),
    ("beam.sweep_amplification.self_ms_per_op", "beam.sweep_amplification", "self_ms"),
    ("beam.amplification_number.calls_per_op", "beam.amplification_number", "calls"),
    ("beam.us_per_point", "beam.sweep_amplification", "us_per_note"),
)


_QUANTITY_UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "calls": "count",
    "notes": "count",
    "mb_per_s": "MB/s",
    "self_ms_per_note": "ms",
    "us_per_note": "us",
}
LAYER_UNITS = {metric: _QUANTITY_UNITS[quantity] for metric, _, quantity in LAYER_METRICS}


def layer_metrics(own: LayerTotals, probe: LayerTotals) -> dict[str, float]:
    """Per-layer metrics, each per operation that reached the layer.

    A layer the workload's own operations never reach is taken from
    ``probe``: a few operations of the workloads that do reach it.
    """
    metrics = {}
    for metric, name, quantity in LAYER_METRICS:
        t = own if own.reached.get(name) else probe
        total, own_time = t.total.get(name, 0.0), t.self_total.get(name, 0.0)
        notes = t.annotation.get(name, 0)
        metrics[metric] = {
            "ms": 1e3 * t.per_op(t.total, name),
            "self_ms": 1e3 * t.per_op(t.self_total, name),
            "calls": t.per_op(t.calls, name),
            "notes": t.per_op(t.annotation, name),
            "mb_per_s": notes / total / 1e6 if total else 0.0,
            "self_ms_per_note": 1e3 * own_time / notes if notes else 0.0,
            "us_per_note": 1e6 * total / notes if notes else 0.0,
        }[quantity]
    return metrics
