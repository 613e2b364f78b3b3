"""Tests of the benchmark's own parts: output checks, inputs, span arithmetic.

Run from the root of a checkout: ``python -m pytest bench -q``.
"""

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tpadlab.cli  # noqa: E402
from checks import check  # noqa: E402
from tracing import LayerTotals, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402


def _run(op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tpadlab.cli.main(op["argv"])
    return code, out.getvalue()


def _replace_field(stdout, row, column, transform):
    """``stdout`` with one CSV field of data row ``row`` rewritten."""
    lines = stdout.splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[column] = transform(fields[column])
    lines[data[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    base = tmp_path_factory.mktemp("rounds")
    return {w: make_round(w, 7, str(base / w)) for w in WORKLOADS}


def test_every_operation_of_every_round_passes_except_known_faults(rounds):
    for workload, ops in rounds.items():
        for op in ops:
            reason = check(op["check"], *_run(op))
            if op.get("known_fault"):
                assert reason is not None and reason.startswith("drive frequency"), reason
            else:
                assert reason is None, f"{workload} {op['argv']}: {reason}"


def test_same_seed_same_inputs(tmp_path):
    def files():
        return {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    for workload in WORKLOADS:
        first = make_round(workload, 3, str(tmp_path))
        first_files = files()
        assert make_round(workload, 3, str(tmp_path)) == first
        assert files() == first_files
        assert make_round(workload, 4, str(tmp_path)) != first


def test_trial_check_rejects_amplitude_two_percent_high(rounds):
    op = next(op for op in rounds["trial-reduce"] if op["check"]["amplitude_m"] and not op.get("known_fault"))
    code, stdout = _run(op)
    assert check(op["check"], code, stdout) is None
    wrong = _replace_field(stdout, 0, 3, lambda v: repr(float(v) * 1.02))
    assert check(op["check"], code, wrong).startswith("amplitude")


def test_trial_check_rejects_power_and_frequency_off(rounds):
    op = rounds["trial-reduce"][0]
    code, stdout = _run(op)
    bin_hz = op["check"]["sample_rate_hz"] / op["check"]["samples"]
    wrong = _replace_field(stdout, 0, 1, lambda v: repr(float(v) + 0.2 * bin_hz))
    assert check(op["check"], code, wrong).startswith("drive frequency")
    wrong = _replace_field(stdout, 0, 2, lambda v: repr(float(v) * 1.001))
    assert check(op["check"], code, wrong).startswith("real power")


def test_off_bin_capture_is_the_known_fault(tmp_path):
    """A quarter-bin tone is misplaced and its amplitude comes out about 4 % low."""
    op = make_round("trial-reduce", 0, str(tmp_path))[-2]
    code, stdout = _run(op)
    amplitude = float(stdout.splitlines()[1].split(",")[3])
    assert op["known_fault"]
    assert check(op["check"], code, stdout).startswith("drive frequency")
    assert 0.95 < amplitude / op["check"]["amplitude_m"] < 0.97


def test_fit_check_rejects_resistance_five_percent_off(rounds):
    op = rounds["spectrum-fit"][0]
    code, stdout = _run(op)
    wrong = _replace_field(stdout, 0, 2, lambda v: repr(float(v) * 1.05))
    assert check(op["check"], code, wrong).startswith("resistance_ohm")
    wrong = _replace_field(stdout, 0, 7, lambda v: "false")
    assert "converged" in check(op["check"], code, wrong)


def _two_units_up(text):
    """Add two units of the last of 12 significant digits."""
    mantissa, _, exponent = format(float(text), ".11e").partition("e")
    return format(float(f"{float(mantissa) + 2e-11:.11f}e{exponent}"), ".12g")


def test_sweep_check_rejects_one_n_beyond_its_printed_digits(rounds):
    op = rounds["design-sweep"][0]
    code, stdout = _run(op)
    wrong = _replace_field(stdout, 1000, 1, _two_units_up)
    assert check(op["check"], code, wrong).startswith("n row 1000")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_non_zero_exit_code_is_rejected(rounds, workload):
    op = rounds[workload][0]
    code, stdout = _run(op)
    assert check(op["check"], 0, stdout) is None
    assert check(op["check"], 3, stdout) == "exit code 3"


def test_cold_start_checks_reject_wrong_values(rounds):
    ops = {op["check"]["kind"]: op for op in rounds["cold-start"]}
    for kind, column in (("contour", 2), ("circuit", 9), ("power", 2)):
        code, stdout = _run(ops[kind])
        assert check(ops[kind]["check"], code, stdout) is None
        wrong = _replace_field(stdout, 0, column, _two_units_up)
        assert check(ops[kind]["check"], code, wrong) is not None, kind
    code, stdout = _run(ops["materials"])
    short = "\n".join(stdout.splitlines()[:-1]) + "\n"
    assert check(ops["materials"]["check"], code, short).startswith("library lists")


def test_self_time_of_a_hand_made_span_tree():
    spans = [
        ["root", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.x", 2.0, 3.0, 1, None],
        ["b", 5.0, 9.0, 0, None],
        ["b.y", 5.0, 6.0, 3, None],
        ["b.z", 7.5, 9.0, 3, None],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_layer_metrics_fall_back_to_the_probe_for_unreached_layers():
    own, probe = LayerTotals(), LayerTotals()
    own.add([["cli.main", 0.0, 0.004, None, None], ["bvdfit.fit_bvd", 0.001, 0.003, 0, 4]], {})
    own.add([["cli.main", 0.0, 0.006, None, None], ["bvdfit.fit_bvd", 0.001, 0.005, 0, 6]], {})
    probe.add([["beam.sweep_amplification", 0.0, 0.002, None, 100]], {"beam.amplification_number": 100})
    metrics = layer_metrics(own, probe)
    assert metrics["cli.self_ms_per_op"] == pytest.approx(2.0)
    assert metrics["bvdfit.fit_bvd.iterations_per_op"] == 5
    assert metrics["bvdfit.fit_bvd.ms_per_iteration"] == pytest.approx(0.6)
    assert metrics["beam.amplification_number.calls_per_op"] == 100
    assert metrics["beam.us_per_point"] == pytest.approx(20.0)
    assert metrics["dataio.load_traces_csv.ms_per_op"] == 0.0


def test_tracer_records_nested_spans_and_restores_modules(rounds):
    tracer = Tracer()
    tracer.install()
    try:
        _run(rounds["trial-reduce"][0])
        spans, counts = tracer.take()
    finally:
        tracer.uninstall()
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and names.count("dataio.detect_drive_frequency") == 2
    inner = names.index("dataio.real_power_from_traces")
    assert spans[names.index("dataio.detect_drive_frequency", inner)][3] == inner
    assert tpadlab.cli.main.__name__ == "main"
