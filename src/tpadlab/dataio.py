"""Ingestion and reduction of raw experiment captures.

A trial capture holds three synchronously sampled channels: the voltage
across the device (``v_piezo``), the voltage across the series shunt
resistor (``v_shunt``, giving drive current as v_shunt/R0), and
optionally a laser vibrometer channel (``ldv``) carrying either plate
displacement (m) or velocity (m/s) -- which one is an explicit tag,
never inferred from the data.

Reduction follows the shunt-resistor measurement scheme: the drive
frequency comes from the dominant FFT bin of v_piezo (refined by local
quadratic interpolation), real power is the mean of v*i over an integer
number of drive periods (exact for single tones, no window function
needed), and vibration amplitude is a single-bin discrete Fourier
projection of the LDV channel at the drive frequency.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalysisError,
    DriveFrequencyNotFound,
    InsufficientSamples,
    InvalidProperty,
    MalformedTraceFile,
    NoLdvChannel,
    is_finite_real,
    require_positive,
)
from .units import LDV_KINDS

# Band the drive tone is expected to fall in (Hz); devices resonate well
# inside it, and the margins catch junk detections early.
EXPECTED_DRIVE_BAND_HZ = (15e3, 60e3)

# A trace must cover at least this many periods of the band's low edge.
MIN_PERIODS = 2

# amplitude below this multiple of the per-bin noise floor is suspect
LOW_CONFIDENCE_FLOOR_RATIO = 10.0

# Relative margin on the energy bound of the noise floor, far above the
# rounding of the FFT, the dot product and the divisions it stands in for.
FLOOR_BOUND_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class TimeTraces:
    """One synchronously sampled trial capture.

    Attributes:
        sample_rate: sampling frequency (Hz), > twice the top of
            :data:`EXPECTED_DRIVE_BAND_HZ`.
        v_piezo: voltage across the device (V).
        v_shunt: voltage across the shunt resistor (V).
        ldv: optional vibrometer channel (m or m/s per ``ldv_kind``).
        ldv_kind: ``"displacement"`` or ``"velocity"``; required exactly
            when ``ldv`` is present.
    """

    sample_rate: float  # Hz
    v_piezo: np.ndarray  # V
    v_shunt: np.ndarray  # V
    ldv: np.ndarray | None = None
    ldv_kind: str | None = None

    def __post_init__(self):
        if not (is_finite_real(self.sample_rate) and 2.0 * EXPECTED_DRIVE_BAND_HZ[1] < self.sample_rate):
            raise InvalidProperty(
                f"sample_rate must be finite and exceed {2.0 * EXPECTED_DRIVE_BAND_HZ[1]:.0f} Hz "
                f"(twice the highest expected drive frequency), got {self.sample_rate!r}"
            )
        # the record's own contiguous, read-only copy of each channel
        v_piezo = np.array(self.v_piezo, dtype=float)
        v_shunt = np.array(self.v_shunt, dtype=float)
        ldv = None if self.ldv is None else np.array(self.ldv, dtype=float)
        series = [v_piezo, v_shunt] + ([ldv] if ldv is not None else [])
        if any(s.ndim != 1 for s in series):
            raise InvalidProperty("trace channels must be 1-d series")
        if len({s.size for s in series}) != 1:
            raise InvalidProperty("trace channels must have equal length")
        for name, s in zip(("v_piezo", "v_shunt", "ldv"), series):
            if not np.all(np.isfinite(s)):
                raise InvalidProperty(f"trace channel {name} holds non-finite samples")
        min_len = int(np.ceil(MIN_PERIODS * (self.sample_rate / EXPECTED_DRIVE_BAND_HZ[0])))
        if v_piezo.size < min_len:
            raise InsufficientSamples(
                f"need at least {min_len} samples ({MIN_PERIODS} periods of "
                f"{EXPECTED_DRIVE_BAND_HZ[0]:.0f} Hz at {self.sample_rate:.0f} Hz), "
                f"got {v_piezo.size}"
            )
        if ldv is not None:
            if self.ldv_kind not in LDV_KINDS:
                raise InvalidProperty(
                    f"ldv_kind must be one of {LDV_KINDS} when ldv is present, got {self.ldv_kind!r}"
                )
        elif self.ldv_kind is not None:
            raise InvalidProperty("ldv_kind given without an ldv channel")
        for s in series:
            s.setflags(write=False)
        object.__setattr__(self, "v_piezo", v_piezo)
        object.__setattr__(self, "v_shunt", v_shunt)
        object.__setattr__(self, "ldv", ldv)

    def __len__(self) -> int:
        return int(self.v_piezo.size)


@dataclass(frozen=True)
class AmplitudeEstimate:
    """Single-tone displacement amplitude extracted from the LDV channel.

    Attributes:
        frequency: tone frequency used for the projection (Hz).
        amplitude: displacement amplitude (m).
        low_confidence: amplitude is below
            :data:`LOW_CONFIDENCE_FLOOR_RATIO` times :func:`noise_floor`
            of the same traces and frequency.
    """

    frequency: float  # Hz
    amplitude: float  # m
    low_confidence: bool


@dataclass(frozen=True)
class TrialSummary:
    """Reduced quantities of one trial.

    Attributes:
        drive_frequency: detected drive tone (Hz); 0 for a null trial.
        real_power: mean of v*i over integer drive periods (W).
        amplitude: vibration displacement amplitude (m); None for traces
            without an LDV channel.
        rms_current: RMS of v_shunt / R0 (A).
        amplitude_low_confidence: amplitude estimate sits near the noise
            floor (see :class:`AmplitudeEstimate`); None exactly when
            ``amplitude`` is.
    """

    drive_frequency: float  # Hz
    real_power: float  # W
    amplitude: float | None  # m
    rms_current: float  # A
    amplitude_low_confidence: bool | None


def _scan_rows(handle, width: int) -> tuple[list[list[float]], str | None]:
    """Convert the rows after the header one by one, up to the first faulty one.

    Returns the rows converted and that row's fault, or None.  Rows are
    numbered among the non-blank rows, the header being row 1.
    """
    handle.seek(0)
    rows = enumerate(filter(None, csv.reader(handle)), start=1)
    next(rows)
    values = []
    for lineno, row in rows:
        if len(row) != width:
            return values, f"line {lineno} has {len(row)} fields, expected {width}"
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            return values, f"line {lineno} is not numeric: {row}"
    return values, None


def _read_csv_table(path, check_header, error, noun: str, positive=None) -> np.ndarray:
    """The rows of a CSV file with one header row, as a (rows, columns) float array.

    ``check_header`` gets the stripped header cells (none for an empty
    file) and raises if they are wrong.  Blank lines are skipped; every
    other row holds one number per column, as ``float`` reads it.  The
    optional ``positive = (column, label)`` names a column that must be > 0.
    ``np.loadtxt`` converts the rows in bulk; where it fails, or would
    read a cell otherwise than ``float``, :func:`_scan_rows` takes over.
    """
    try:
        with open(path, "rb") as file:
            raw = file.read()
        if not raw.isascii():
            raw.decode("utf-8")  # only to check it: a StringIO of the text takes 4 bytes a character
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {noun} file {path}: {exc}") from exc
    handle = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
    reader = csv.reader(handle)
    header = tuple(cell.strip() for cell in next(filter(None, reader), ()))
    check_header(header)
    width, values, fault = len(header), None, None
    # the body as bytes, from the end of the header's lines (which may end in a lone CR)
    handle.seek(0)
    body = io.BytesIO(raw)
    body.seek(sum(len(line.encode("utf-8")) for line in itertools.islice(handle, reader.line_num)))
    # loadtxt warns on a body without data, so it never gets one
    first = next((line for line in body if line.strip(b"\r\n")), None)
    # loadtxt strips \x1c-\x1f like blanks, float rejects them
    if first is not None and not any(c in raw for c in b"\x1c\x1d\x1e\x1f"):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(
                itertools.chain([first], body), delimiter=",", comments=None, ndmin=2, encoding="utf-8"
            )
    if values is None or values.shape[1] != width:
        rows, fault = _scan_rows(handle, width)
        values = np.array(rows, dtype=float).reshape(-1, width)
    if positive is not None:
        bad = np.flatnonzero(~(values[:, positive[0]] > 0))
        if bad.size:
            raise error(f"{path}: line {bad[0] + 2} {positive[1]} must be positive")
    if fault is not None:
        raise error(f"{path}: {fault}")
    return values


def load_traces_csv(path, sample_rate: float, ldv_kind: str | None = None) -> TimeTraces:
    """Read a trial capture CSV with header ``v_piezo,v_shunt[,ldv]``.

    ``sample_rate`` is supplied by the caller (the file carries no
    timing).  ``ldv_kind`` must be given when the file has an ldv column,
    else :class:`TimeTraces` raises ``InvalidProperty``.  Cells are
    numbers as Python's ``float`` reads them; blank lines are skipped.

    Raises:
        MalformedTraceFile: unreadable or not UTF-8, wrong header, ragged
            or non-numeric rows.
        InsufficientSamples: fewer rows than the minimum trace length.
    """

    def check_header(header):
        if not header:
            raise MalformedTraceFile(f"{path}: empty file")
        if header not in (("v_piezo", "v_shunt"), ("v_piezo", "v_shunt", "ldv")):
            raise MalformedTraceFile(f"{path}: header must be v_piezo,v_shunt[,ldv], got {','.join(header)}")

    v_piezo, v_shunt, *ldv = _read_csv_table(path, check_header, MalformedTraceFile, "trace").T
    return TimeTraces(sample_rate, v_piezo, v_shunt, ldv[0] if ldv else None, ldv_kind if ldv else None)


def _finite_result(value) -> float:
    """``value`` as a float, or AnalysisError worded as ``units.csv_table`` words a non-finite cell."""
    value = float(value)
    if not math.isfinite(value):
        raise AnalysisError(f"result outside the model's range (got {value})")
    return value


def detect_drive_frequency(traces: TimeTraces) -> float:
    """Frequency of the dominant spectral line of v_piezo (Hz).

    Takes the largest non-DC FFT bin and refines it by quadratic
    interpolation of the log magnitudes of the bin and its neighbors.

    Raises:
        DriveFrequencyNotFound: the dominant bin falls outside
            :data:`EXPECTED_DRIVE_BAND_HZ`.
        AnalysisError: v_piezo is so near float range that the largest
            bin is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite spectrum is a typed error below
        x = traces.v_piezo - np.mean(traces.v_piezo)
        magnitudes = np.abs(np.fft.rfft(x))  # at least 9 bins: a valid record holds at least 17 samples
    k = int(np.argmax(magnitudes[1:])) + 1  # a nan bin, if any, else an inf one
    _finite_result(magnitudes[k])
    delta = 0.0
    if k < magnitudes.size - 1 and np.all(magnitudes[k - 1 : k + 2] > 0):
        a, b, c = np.log(magnitudes[k - 1 : k + 2])
        denom = a - 2.0 * b + c
        if denom < 0:
            delta = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
    frequency = (k + delta) * traces.sample_rate / len(traces)
    lo, hi = EXPECTED_DRIVE_BAND_HZ
    if not lo <= frequency <= hi:
        raise DriveFrequencyNotFound(
            f"dominant line at {frequency:.1f} Hz is outside [{lo:.0f}, {hi:.0f}] Hz"
        )
    return float(frequency)


def _integer_period_length(traces: TimeTraces, drive_frequency: float | None) -> tuple[float, int]:
    """The drive frequency (detected from v_piezo when None) and the largest
    sample count <= len(traces) covering a whole number of its periods."""
    if drive_frequency is None:
        drive_frequency = detect_drive_frequency(traces)
    lo, hi = EXPECTED_DRIVE_BAND_HZ  # inside it, a valid record covers at least MIN_PERIODS periods
    if not (isinstance(drive_frequency, numbers.Real) and lo <= drive_frequency <= hi):
        raise InvalidProperty(f"drive_frequency must be in [{lo:.0f}, {hi:.0f}] Hz, got {drive_frequency!r}")
    periods = int(np.floor(len(traces) * drive_frequency / traces.sample_rate))
    return drive_frequency, min(len(traces), int(round(periods * traces.sample_rate / drive_frequency)))


def real_power_from_traces(
    traces: TimeTraces, shunt_resistance: float, drive_frequency: float | None = None
) -> float:
    """Real power delivered to the device (W).

    i(t) = v_shunt(t) / R0; P is the mean of v_piezo * i over an integer
    number of drive periods (trailing partial period dropped).  When
    ``drive_frequency`` is omitted it is detected from v_piezo; a given
    one outside :data:`EXPECTED_DRIVE_BAND_HZ` raises ``InvalidProperty``.
    A power outside float range raises ``AnalysisError``.
    """
    require_positive(locals(), "", "shunt_resistance")
    _, m = _integer_period_length(traces, drive_frequency)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite power is a typed error below
        current = traces.v_shunt[:m] / shunt_resistance
        return _finite_result(np.mean(traces.v_piezo[:m] * current))


def _ldv_window(traces: TimeTraces, drive_frequency: float | None) -> tuple[float, np.ndarray, float]:
    """The drive frequency, the mean-free LDV samples over whole periods, and the
    divisor that turns their amplitude into displacement (the angular drive
    frequency for a velocity channel, else 1)."""
    if traces.ldv is None:
        raise NoLdvChannel("traces have no ldv channel")
    frequency, m = _integer_period_length(traces, drive_frequency)
    x = traces.ldv[:m] - np.mean(traces.ldv[:m])
    return frequency, x, 2.0 * np.pi * frequency if traces.ldv_kind == "velocity" else 1.0


def _off_tone_bins(m: int, frequency: float, sample_rate: float) -> np.ndarray:
    """Mask of the rfft bins of ``m`` samples that count toward the noise floor:
    not DC or its two neighbours, and more than 3 bins from the tone."""
    bins = np.arange(m // 2 + 1)
    return (bins >= 3) & (np.abs(bins - frequency * m / sample_rate) > 3)


def noise_floor(traces: TimeTraces, drive_frequency: float | None = None) -> float:
    """Per-bin noise floor of the LDV channel, in displacement units (m).

    The median of the FFT bin amplitudes 2|X_k|/m of the mean-free
    channel, cropped to the same whole number of drive periods as
    :func:`amplitude_from_ldv`, over the bins off the tone: all but DC,
    its two neighbours and the bins within 3 of the tone.  It is 0 when no
    bin is off the tone.  A velocity channel is divided by the angular
    drive frequency.  When ``drive_frequency`` is omitted it is detected
    from v_piezo.

    Raises:
        NoLdvChannel: traces carry no LDV channel.
        InvalidProperty: a drive frequency outside :data:`EXPECTED_DRIVE_BAND_HZ`.
        AnalysisError: the channel is so near float range that the floor
            is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite floor is a typed error
        frequency, x, divisor = _ldv_window(traces, drive_frequency)
        off_tone = _off_tone_bins(x.size, frequency, traces.sample_rate)
        if not np.any(off_tone):
            return 0.0
        bin_amplitudes = 2.0 * np.abs(np.fft.rfft(x)) / x.size
    return _finite_result(np.median(bin_amplitudes[off_tone])) / divisor


def amplitude_from_ldv(traces: TimeTraces, drive_frequency: float | None = None) -> AmplitudeEstimate:
    """Vibration displacement amplitude from the LDV channel.

    Projects the mean-free channel onto the drive tone over an integer
    number of periods: amplitude = 2 |sum x[n] exp(-2 pi j f n / fs)| / m.
    A velocity-kind channel is converted to displacement by dividing by
    the angular frequency.  When ``drive_frequency`` is omitted it is
    detected from v_piezo.

    The estimate is flagged low-confidence when the amplitude is below
    :data:`LOW_CONFIDENCE_FLOOR_RATIO` times :func:`noise_floor`.  That
    floor takes an FFT of the cropped length, which is slow for lengths
    with a large prime factor, so it is computed only when the channel's
    energy leaves the flag open: the median of the K off-tone bin
    amplitudes is at most sqrt(8 (x @ x) / (m K)), because at least half
    of them reach the median and, by Parseval, the squares of all rfft bin
    amplitudes sum to at most 4 (x @ x) / m.  An amplitude of at least
    ten times that bound (plus :data:`FLOOR_BOUND_MARGIN`) is not
    low-confidence, whatever the exact floor.

    Raises:
        NoLdvChannel: traces carry no LDV channel.
        InvalidProperty: a drive frequency outside :data:`EXPECTED_DRIVE_BAND_HZ`.
        AnalysisError: the channel is so near float range that its mean,
            its projection or its noise floor is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below: inf or nan is a typed error
        frequency, x, divisor = _ldv_window(traces, drive_frequency)
        phase = np.exp(-2j * np.pi * frequency / traces.sample_rate * np.arange(x.size))
        amplitude = 2.0 * np.abs(np.sum(x * phase)) / x.size / divisor
        # the bound is inf near float range, where it then decides nothing
        off_tone = np.count_nonzero(_off_tone_bins(x.size, frequency, traces.sample_rate))
        floor_bound = np.sqrt(8.0 * (x @ x) / (x.size * off_tone)) / divisor if off_tone else np.inf
        above_bound = amplitude >= LOW_CONFIDENCE_FLOOR_RATIO * floor_bound * (1.0 + FLOOR_BOUND_MARGIN)
    if not np.isfinite(amplitude):
        raise AnalysisError("result outside the model's range (ldv amplitude is not finite)")
    if above_bound:
        low_confidence = False
    else:
        low_confidence = bool(amplitude < LOW_CONFIDENCE_FLOOR_RATIO * noise_floor(traces, frequency))
    return AmplitudeEstimate(frequency=float(frequency), amplitude=float(amplitude), low_confidence=low_confidence)


def summarize_trial(traces: TimeTraces, shunt_resistance: float) -> TrialSummary:
    """Reduce one trial to drive frequency, power, amplitude and current.

    Traces without an LDV channel give ``amplitude`` and
    ``amplitude_low_confidence`` None.  A null capture (all channels
    identically zero) summarizes to zeros rather than failing tone
    detection; with an LDV channel, its amplitude is flagged
    low-confidence since there is no tone to measure.

    Raises:
        DriveFrequencyNotFound: non-null traces without an in-band tone.
        AnalysisError: samples so near float range that the spectrum, the
            power or the current is not finite.
    """
    require_positive(locals(), "", "shunt_resistance")
    has_ldv = traces.ldv is not None
    silent = not np.any(traces.v_piezo) and not np.any(traces.v_shunt)
    if silent and not (has_ldv and np.any(traces.ldv)):
        return TrialSummary(0.0, 0.0, 0.0 if has_ldv else None, 0.0, True if has_ldv else None)
    frequency = detect_drive_frequency(traces)
    estimate = amplitude_from_ldv(traces, frequency) if has_ldv else None
    real_power = real_power_from_traces(traces, shunt_resistance, frequency)
    with np.errstate(over="ignore"):  # a non-finite current is a typed error
        rms_current = _finite_result(np.sqrt(np.mean(traces.v_shunt**2)) / shunt_resistance)
    return TrialSummary(
        drive_frequency=frequency,
        real_power=real_power,
        amplitude=None if estimate is None else estimate.amplitude,
        rms_current=rms_current,
        amplitude_low_confidence=None if estimate is None else estimate.low_confidence,
    )
