import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpadlab import dataio
from tpadlab.dataio import TimeTraces, TrialSummary
from tpadlab.errors import (
    AnalysisError,
    DriveFrequencyNotFound,
    InsufficientSamples,
    InvalidProperty,
    MalformedTraceFile,
    NoLdvChannel,
    TpadlabError,
)
from tpadlab.units import LDV_KINDS

FS = 300e3
R0 = 100.0


def tone_traces(
    frequency=30e3,
    duration=0.1,
    v_amp=40.0,
    i_amp=0.1,
    phase_deg=60.0,
    ldv=None,
    ldv_kind=None,
):
    t = np.arange(int(round(duration * FS))) / FS
    omega = 2.0 * math.pi * frequency
    v_piezo = v_amp * np.sin(omega * t)
    v_shunt = i_amp * R0 * np.sin(omega * t - math.radians(phase_deg))
    return TimeTraces(FS, v_piezo, v_shunt, ldv=ldv, ldv_kind=ldv_kind), t


def test_traces_accept_long_capture():
    traces, _ = tone_traces()
    assert len(traces) == 30000
    assert traces.ldv is None


def test_traces_reject_short_capture():
    with pytest.raises(InsufficientSamples):
        TimeTraces(FS, np.zeros(3), np.zeros(3))


def test_traces_reject_low_sample_rate():
    with pytest.raises(InvalidProperty):
        TimeTraces(100e3, np.zeros(1000), np.zeros(1000))


def test_traces_reject_ragged_channels():
    with pytest.raises(InvalidProperty):
        TimeTraces(FS, np.zeros(100), np.zeros(101))


def test_traces_reject_2d_channels():
    with pytest.raises(InvalidProperty):
        TimeTraces(FS, np.zeros((50, 2)), np.zeros((50, 2)))


def test_traces_ldv_kind_pairing():
    n = 100
    with pytest.raises(InvalidProperty):
        TimeTraces(FS, np.zeros(n), np.zeros(n), ldv=np.zeros(n))
    with pytest.raises(InvalidProperty):
        TimeTraces(FS, np.zeros(n), np.zeros(n), ldv_kind="displacement")
    with pytest.raises(InvalidProperty):
        TimeTraces(FS, np.zeros(n), np.zeros(n), ldv=np.zeros(n), ldv_kind="position")


def test_traces_channels_are_read_only():
    traces, _ = tone_traces()
    with pytest.raises(ValueError):
        traces.v_piezo[0] = 1.0


def test_traces_copy_the_caller_arrays():
    v_piezo, v_shunt, ldv = np.zeros((3, 100))
    traces = TimeTraces(FS, v_piezo, v_shunt, ldv=ldv, ldv_kind="displacement")
    assert v_piezo.flags.writeable and v_shunt.flags.writeable and ldv.flags.writeable
    v_piezo[0] = 1.0
    assert traces.v_piezo[0] == 0.0
    for channel in (traces.v_piezo, traces.v_shunt, traces.ldv):
        assert not channel.flags.writeable and channel.flags.c_contiguous


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("channel", ["v_piezo", "v_shunt", "ldv"])
def test_traces_reject_non_finite_samples(channel, bad):
    series = {name: np.zeros(100) for name in ("v_piezo", "v_shunt", "ldv")}
    series[channel][17] = bad
    with pytest.raises(InvalidProperty, match=f"channel {channel} holds non-finite samples"):
        TimeTraces(FS, series["v_piezo"], series["v_shunt"], ldv=series["ldv"], ldv_kind="velocity")


def _write_csv(path, columns, header):
    lines = [header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.9g}" for v in row))
    path.write_text("\n".join(lines) + "\n")


def test_load_two_column_csv(tmp_path):
    traces, _ = tone_traces(duration=0.001)
    path = tmp_path / "trial.csv"
    _write_csv(path, [traces.v_piezo, traces.v_shunt], "v_piezo,v_shunt")
    loaded = dataio.load_traces_csv(path, FS)
    assert len(loaded) == len(traces)
    assert loaded.ldv is None
    assert np.allclose(loaded.v_piezo, traces.v_piezo, atol=1e-6)


def test_loaded_channels_are_read_only_and_contiguous(tmp_path):
    path = tmp_path / "trial.csv"
    _write_csv(path, np.arange(300.0).reshape(3, 100), "v_piezo,v_shunt,ldv")
    loaded = dataio.load_traces_csv(path, FS, ldv_kind="velocity")
    for channel in (loaded.v_piezo, loaded.v_shunt, loaded.ldv):
        assert not channel.flags.writeable and channel.flags.c_contiguous
    assert loaded.ldv.tolist() == list(np.arange(200.0, 300.0))


def test_load_csv_ignores_kind_without_ldv_column(tmp_path):
    traces, _ = tone_traces(duration=0.001)
    path = tmp_path / "trial.csv"
    _write_csv(path, [traces.v_piezo, traces.v_shunt], "v_piezo,v_shunt")
    loaded = dataio.load_traces_csv(path, FS, ldv_kind="displacement")
    assert loaded.ldv_kind is None


def test_load_three_column_csv_requires_kind(tmp_path):
    traces, t = tone_traces(duration=0.001)
    ldv = 3e-6 * np.sin(2.0 * math.pi * 30e3 * t)
    path = tmp_path / "trial.csv"
    _write_csv(path, [traces.v_piezo, traces.v_shunt, ldv], "v_piezo,v_shunt,ldv")
    with pytest.raises(InvalidProperty, match="^ldv_kind must be one of") as exc:
        dataio.load_traces_csv(path, FS)
    assert isinstance(exc.value, ValueError)  # callers that catch ValueError keep working
    loaded = dataio.load_traces_csv(path, FS, ldv_kind="displacement")
    assert loaded.ldv_kind == "displacement"
    assert loaded.ldv is not None


def test_load_csv_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("volts,amps\n" + "0,0\n" * 100)
    with pytest.raises(MalformedTraceFile):
        dataio.load_traces_csv(bad_header, FS)
    ragged = tmp_path / "r.csv"
    ragged.write_text("v_piezo,v_shunt\n" + "0,0\n" * 50 + "0\n")
    with pytest.raises(MalformedTraceFile):
        dataio.load_traces_csv(ragged, FS)
    text = tmp_path / "t.csv"
    text.write_text("v_piezo,v_shunt\n" + "0,0\n" * 50 + "zero,0\n")
    with pytest.raises(MalformedTraceFile):
        dataio.load_traces_csv(text, FS)
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(MalformedTraceFile):
        dataio.load_traces_csv(empty, FS)
    # not UTF-8, in the body and in the header
    for name, raw in (
        ("body", b"v_piezo,v_shunt\n" + b"0,0\n" * 50 + b"\xff,0\n"),
        ("header", b"v_pi\xffzo,v_shunt\n"),
    ):
        latin = tmp_path / f"{name}.csv"
        latin.write_bytes(raw)
        with pytest.raises(MalformedTraceFile, match="cannot read trace file"):
            dataio.load_traces_csv(latin, FS)


def _reference_load_traces_csv(path, sample_rate, ldv_kind=None):
    """The line-scan reader that the bulk parser replaced, kept as the reference."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise MalformedTraceFile(f"cannot read trace file {path}: {exc}") from exc
    if not rows:
        raise MalformedTraceFile(f"{path}: empty file")
    header = tuple(cell.strip() for cell in rows[0])
    if header not in (("v_piezo", "v_shunt"), ("v_piezo", "v_shunt", "ldv")):
        raise MalformedTraceFile(
            f"{path}: header must be v_piezo,v_shunt[,ldv], got {','.join(header)}"
        )
    has_ldv = len(header) == 3
    if has_ldv and ldv_kind is None:
        raise ValueError(f"{path} has an ldv column; pass ldv_kind explicitly")
    columns = [[] for _ in header]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise MalformedTraceFile(
                f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}"
            )
        try:
            for column, cell in zip(columns, row):
                column.append(float(cell))
        except ValueError as exc:
            raise MalformedTraceFile(f"{path}: line {lineno} is not numeric: {row}") from exc
    return TimeTraces(
        sample_rate=sample_rate,
        v_piezo=np.array(columns[0]),
        v_shunt=np.array(columns[1]),
        ldv=np.array(columns[2]) if has_ldv else None,
        ldv_kind=ldv_kind if has_ldv else None,
    )


_ROWS = "".join(f"{40 * math.sin(0.7 * k):.9g},{-0.5 * math.cos(0.7 * k):.9g}\n" for k in range(60))
_TWO = "v_piezo,v_shunt\n"

# each file is valid but for its named feature; the rows are enough for a trace
TRACE_EDGE_FILES = {
    "plain": _TWO + _ROWS,
    "blank lines": "\n" + _TWO + "\n" + _ROWS[:300] + "\n\n" + _ROWS[300:] + "\n",
    "whitespace-only line": _TWO + _ROWS + "  \t\n" + _ROWS,
    "blank then ragged": _TWO + "\n\n" + _ROWS + "\n1\n",
    "comment line": _TWO + "# exported by scope\n" + _ROWS,
    "quoted cells": _TWO + '"1.5"," -2"\n' + _ROWS,
    "underscore digits": _TWO + _ROWS + "1_0,2\n",
    "full-width digits": _TWO + "\uff11,2\n" + _ROWS,
    "ascii separator": _TWO + _ROWS + "1\x1c,2\n",
    "crlf": (_TWO + _ROWS).replace("\n", "\r\n"),
    "cr only": (_TWO + _ROWS).replace("\n", "\r"),
    "no final newline": _TWO + _ROWS.rstrip("\n"),
    "trailing comma": _TWO + _ROWS.replace("\n", ",\n"),
    "more columns than header": _TWO + _ROWS.replace("\n", ",0\n"),
    "fewer columns than header": "v_piezo,v_shunt,ldv\n" + _ROWS,
    "three columns": "v_piezo,v_shunt,ldv\n" + _ROWS.replace("\n", ",1e-6\n"),
    "non-numeric": _TWO + _ROWS + "zero,0\n",
    "nan sample": _TWO + _ROWS + "nan,0\n",
    "single data row": _TWO + "1,2\n",
    "header only": _TWO,
    "header and blank lines": _TWO + "\n\r\n\n",
    "empty": "",
    "wrong header": "volts,amps\n" + _ROWS,
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", TRACE_EDGE_FILES.values(), ids=TRACE_EDGE_FILES.keys())
def test_trace_reader_matches_line_scan_reference(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for load in (_reference_load_traces_csv, dataio.load_traces_csv):
        try:
            outcomes.append(load(path, FS, "velocity"))
        except TpadlabError as exc:
            outcomes.append(exc)
    expected, loaded = outcomes
    if isinstance(expected, Exception):
        assert type(loaded) is type(expected)
        assert str(loaded) == str(expected)
        return
    assert isinstance(loaded, TimeTraces) and loaded.ldv_kind == expected.ldv_kind
    for channel in ("v_piezo", "v_shunt", "ldv"):
        assert np.array_equal(getattr(loaded, channel), getattr(expected, channel))
    assert loaded.v_piezo.flags.c_contiguous and not loaded.v_piezo.flags.writeable


PLAIN_CELLS = st.floats(allow_nan=False).map(repr)
# cells that loadtxt rejects or reads otherwise than float, so the row scan takes them
ODD_CELLS = st.one_of(
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3E}"),
    st.floats(-1e6, 1e6).map(lambda v: f'"{v!r}"'),
    st.floats(-1e6, 1e6).map(lambda v: f" {v!r}\t"),
    st.integers(-99, 99).map(lambda k: f"{k}_0"),
)


@st.composite
def csv_files(draw):
    """A header and rows of numbers, with blank and whitespace-only lines, any line ends, and no final
    newline or one.  Most files are plain, so that the bulk parser reads them; the others hold odd
    cells, a whitespace-only line or lone CRs, which the row scan reads."""
    width = draw(st.integers(1, 3))
    cells = draw(st.sampled_from([PLAIN_CELLS, PLAIN_CELLS, st.one_of(PLAIN_CELLS, ODD_CELLS)]))
    rows = draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=12))
    lines = [",".join(f"c{k}" for k in range(width)), *map(",".join, rows)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from([" ", "\t", " \t "])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r", "mixed"]))
    if newline == "mixed":
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
        text = "".join(map("".join, zip(lines, ends)))
    else:
        text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return text.encode("utf-8")


@settings(max_examples=300)
@given(raw=csv_files())
def test_bulk_reader_returns_the_row_scan_arrays(scratch, raw):
    path = scratch / "table.csv"
    path.write_bytes(raw)
    handle = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    width = len(next(filter(None, csv.reader(handle))))
    rows, fault = dataio._scan_rows(handle, width)
    try:
        values = dataio._read_csv_table(path, lambda header: None, MalformedTraceFile, "trace")
    except MalformedTraceFile as exc:
        assert fault is not None and str(exc) == f"{path}: {fault}"
        return
    assert fault is None
    expected = np.array(rows, dtype=float).reshape(-1, width)
    assert values.shape == expected.shape and values.dtype == expected.dtype
    assert np.array_equal(values, expected)


def test_detect_integer_bin_tone():
    # 33.1 kHz is an exact bin at 300 kHz / 30000 samples
    traces, _ = tone_traces(frequency=33.1e3)
    assert dataio.detect_drive_frequency(traces) == pytest.approx(33.1e3, abs=0.01)


def test_detect_off_bin_tone():
    traces, _ = tone_traces(frequency=33.1037e3)
    assert dataio.detect_drive_frequency(traces) == pytest.approx(33.1037e3, abs=5.0)


def test_detect_picks_dominant_of_two_tones():
    _, t = tone_traces()
    v = np.sin(2.0 * math.pi * 30e3 * t) + 0.1 * np.sin(2.0 * math.pi * 57e3 * t)
    traces = TimeTraces(FS, v, np.zeros_like(v))
    assert dataio.detect_drive_frequency(traces) == pytest.approx(30e3, abs=1.0)


def test_detect_rejects_silence_and_out_of_band():
    n = 30000
    with pytest.raises(DriveFrequencyNotFound):
        dataio.detect_drive_frequency(TimeTraces(FS, np.ones(n), np.zeros(n)))
    t = np.arange(n) / FS
    low = np.sin(2.0 * math.pi * 5e3 * t)
    with pytest.raises(DriveFrequencyNotFound):
        dataio.detect_drive_frequency(TimeTraces(FS, low, np.zeros(n)))


def test_real_power_reference_case():
    # P = V_pk I_pk cos(phi) / 2 = 40 * 0.1 * cos(60 deg) / 2 = 1 W
    traces, _ = tone_traces()
    assert dataio.real_power_from_traces(traces, R0) == pytest.approx(1.0, rel=1e-3)


def test_real_power_quadrature_is_reactive():
    traces, _ = tone_traces(phase_deg=90.0)
    assert abs(dataio.real_power_from_traces(traces, R0)) < 1e-4


def test_real_power_zero_current():
    traces, _ = tone_traces(i_amp=0.0)
    assert dataio.real_power_from_traces(traces, R0) == 0.0


def test_real_power_partial_period_cropping():
    traces, _ = tone_traces()
    t_ext = np.arange(len(traces) + 3) / FS
    omega = 2.0 * math.pi * 30e3
    extended = TimeTraces(
        FS,
        40.0 * np.sin(omega * t_ext),
        10.0 * np.sin(omega * t_ext - math.radians(60.0)),
    )
    base = dataio.real_power_from_traces(traces, R0)
    assert dataio.real_power_from_traces(extended, R0) == pytest.approx(base, rel=1e-3)


def test_real_power_uses_a_given_drive_frequency():
    traces, _ = tone_traces()
    detected = dataio.detect_drive_frequency(traces)
    assert dataio.real_power_from_traces(traces, R0, detected) == dataio.real_power_from_traces(traces, R0)
    with pytest.raises(InvalidProperty):
        dataio.real_power_from_traces(traces, R0, 0.0)


def test_real_power_requires_positive_shunt():
    traces, _ = tone_traces()
    with pytest.raises(InvalidProperty):
        dataio.real_power_from_traces(traces, 0.0)


def test_amplitude_from_displacement_channel():
    _, t = tone_traces()
    ldv = 3e-6 * np.sin(2.0 * math.pi * 30e3 * t + 0.3)
    traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
    estimate = dataio.amplitude_from_ldv(traces)
    assert estimate.amplitude == pytest.approx(3e-6, rel=5e-3)
    assert estimate.frequency == pytest.approx(30e3, abs=1.0)
    assert not estimate.low_confidence


def test_amplitude_from_velocity_channel():
    omega = 2.0 * math.pi * 30e3
    _, t = tone_traces()
    ldv = 3e-6 * omega * np.cos(omega * t)
    traces, _ = tone_traces(ldv=ldv, ldv_kind="velocity")
    estimate = dataio.amplitude_from_ldv(traces)
    assert estimate.amplitude == pytest.approx(3e-6, rel=5e-3)


def test_amplitude_linearity():
    _, t = tone_traces()
    results = []
    for scale in (1e-6, 2e-6, 4e-6):
        ldv = scale * np.sin(2.0 * math.pi * 30e3 * t)
        traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
        results.append(dataio.amplitude_from_ldv(traces).amplitude)
    assert results[1] / results[0] == pytest.approx(2.0, rel=1e-6)
    assert results[2] / results[0] == pytest.approx(4.0, rel=1e-6)


def test_amplitude_flags_noise_as_low_confidence():
    rng = np.random.default_rng(6)
    _, t = tone_traces()
    ldv = 1e-9 * rng.standard_normal(t.size)
    traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
    estimate = dataio.amplitude_from_ldv(traces)
    assert estimate.low_confidence
    assert dataio.noise_floor(traces) > 0.0


@settings(max_examples=200)
@given(
    bins=st.floats(0.0, 1.0),
    on_grid=st.booleans(),
    n=st.one_of(st.integers(40, 400), st.integers(400, 20000)),
    amplitude=st.floats(1e-8, 1e-4),
    noise=st.floats(-10.0, 1.5).map(lambda e: 10.0**e),
    ldv_kind=st.sampled_from(LDV_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_confidence_flag_matches_the_noise_floor(bins, on_grid, n, amplitude, noise, ldv_kind, seed):
    # a tone anywhere in 15-60 kHz, on the capture's bin grid or not; n = 40 is the shortest trace at FS
    lo, hi = dataio.EXPECTED_DRIVE_BAND_HZ
    frequency = lo + bins * (hi - lo)
    if on_grid:
        k = min(max(round(frequency * n / FS), math.ceil(lo * n / FS)), math.floor(hi * n / FS))
        frequency = k * FS / n
    omega = 2.0 * math.pi * frequency
    scale = omega if ldv_kind == "velocity" else 1.0
    t = np.arange(n) / FS
    rng = np.random.default_rng(seed)
    ldv = scale * amplitude * (np.sin(omega * t + 0.7) + noise * rng.standard_normal(n))
    traces = TimeTraces(FS, np.sin(omega * t), np.zeros(n), ldv=ldv, ldv_kind=ldv_kind)
    estimate = dataio.amplitude_from_ldv(traces, frequency)
    floor = dataio.noise_floor(traces, frequency)
    assert estimate.low_confidence == (estimate.amplitude < dataio.LOW_CONFIDENCE_FLOOR_RATIO * floor)
    # the energy bound that lets amplitude_from_ldv skip the floor's FFT
    _, m = dataio._integer_period_length(traces, frequency)
    x = ldv[:m] - np.mean(ldv[:m])
    bins_off_tone = [k for k in range(3, m // 2 + 1) if abs(k - frequency * m / FS) > 3]
    if bins_off_tone:
        bound = math.sqrt(8.0 * (x @ x) / (m * len(bins_off_tone))) / scale
        assert floor <= bound * (1.0 + dataio.FLOOR_BOUND_MARGIN)
    else:
        assert floor == 0.0


def test_clean_capture_takes_one_fft_for_detection_only(monkeypatch):
    rfft, sizes = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda x: sizes.append(x.size) or rfft(x))
    fs, n = 500e3, 50_000
    t = np.arange(n) / fs
    omega = 2.0 * math.pi * 30002.5  # a quarter bin off, so the crop is shorter than n
    rng = np.random.default_rng(3)
    v_piezo, v_shunt = 40.0 * np.sin(omega * t), 0.5 * np.sin(omega * t - 0.3)
    ldv = 3e-6 * np.sin(omega * t) + 3e-9 * rng.standard_normal(n)
    clean = TimeTraces(fs, v_piezo, v_shunt, ldv, "displacement")
    summary = dataio.summarize_trial(clean, R0)
    assert summary.amplitude_low_confidence is False
    assert sizes == [n]
    # a noise-dominated channel leaves the flag open, and the floor's FFT decides it
    sizes.clear()
    ldv = 3e-9 * np.sin(omega * t) + 3e-6 * rng.standard_normal(n)
    noisy = TimeTraces(fs, v_piezo, v_shunt, ldv, "displacement")
    assert dataio.summarize_trial(noisy, R0).amplitude_low_confidence is True
    assert len(sizes) == 2 and sizes[0] == n > sizes[1]


def test_amplitude_near_float_range_is_an_analysis_error():
    # the mean of the channel overflows; no numpy warning comes before the error
    _, t = tone_traces(duration=0.001)
    ldv = 1.7e308 * np.sin(2.0 * math.pi * 30e3 * t + 0.4)
    traces, _ = tone_traces(duration=0.001, ldv=ldv, ldv_kind="displacement")
    with pytest.raises(AnalysisError, match="outside the model's range"):
        dataio.amplitude_from_ldv(traces)


def test_amplitude_requires_ldv_channel():
    traces, _ = tone_traces()
    with pytest.raises(NoLdvChannel):
        dataio.amplitude_from_ldv(traces)


def test_amplitude_rejects_nonpositive_frequency():
    _, t = tone_traces()
    ldv = 3e-6 * np.sin(2.0 * math.pi * 30e3 * t)
    traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
    with pytest.raises(InvalidProperty):
        dataio.amplitude_from_ldv(traces, drive_frequency=0.0)


def test_summarize_trial_reference_case():
    _, t = tone_traces()
    ldv = 3e-6 * np.sin(2.0 * math.pi * 30e3 * t)
    traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
    summary = dataio.summarize_trial(traces, R0)
    assert summary.drive_frequency == pytest.approx(30e3, abs=1.0)
    assert summary.real_power == pytest.approx(1.0, rel=1e-3)
    assert summary.amplitude == pytest.approx(3e-6, rel=5e-3)
    # v_shunt peak 10 V -> RMS current (10 / sqrt 2) / 100 ohm
    assert summary.rms_current == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-6)
    assert not summary.amplitude_low_confidence


def test_summarize_trial_is_deterministic():
    _, t = tone_traces()
    ldv = 3e-6 * np.sin(2.0 * math.pi * 30e3 * t)
    summaries = []
    for _ in range(5):
        traces, _ = tone_traces(ldv=ldv, ldv_kind="displacement")
        summaries.append(dataio.summarize_trial(traces, R0))
    assert all(s == summaries[0] for s in summaries)


def test_summarize_trial_null_capture():
    n = 30000
    traces = TimeTraces(FS, np.zeros(n), np.zeros(n), ldv=np.zeros(n), ldv_kind="displacement")
    summary = dataio.summarize_trial(traces, R0)
    assert summary == TrialSummary(0.0, 0.0, 0.0, 0.0, amplitude_low_confidence=True)


def test_summarize_trial_without_ldv():
    traces, _ = tone_traces()
    summary = dataio.summarize_trial(traces, R0)
    assert summary.drive_frequency == pytest.approx(30e3, abs=1.0)
    assert summary.real_power == pytest.approx(1.0, rel=1e-3)
    assert summary.rms_current == pytest.approx(0.1 / math.sqrt(2.0), rel=1e-6)
    assert summary.amplitude is None
    assert summary.amplitude_low_confidence is None


def test_summarize_trial_null_capture_without_ldv():
    n = 30000
    summary = dataio.summarize_trial(TimeTraces(FS, np.zeros(n), np.zeros(n)), R0)
    assert summary == TrialSummary(0.0, 0.0, None, 0.0, amplitude_low_confidence=None)


def test_summarize_trial_requires_positive_shunt():
    traces, _ = tone_traces()
    with pytest.raises(InvalidProperty):
        dataio.summarize_trial(traces, -1.0)
