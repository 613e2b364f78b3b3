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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DriveFrequencyNotFound,
    InsufficientSamples,
    InvalidProperty,
    MalformedTraceFile,
    NoLdvChannel,
)
from .units import LDV_KINDS

# Band the drive tone is expected to fall in (Hz); devices resonate well
# inside it, and the margins catch junk detections early.
EXPECTED_DRIVE_BAND_HZ = (15e3, 60e3)

# A trace must cover at least this many periods of the band's low edge.
MIN_PERIODS = 2

# amplitude below this multiple of the per-bin noise floor is suspect
LOW_CONFIDENCE_FLOOR_RATIO = 10.0


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
        if not self.sample_rate > 2.0 * EXPECTED_DRIVE_BAND_HZ[1]:
            raise InvalidProperty(
                f"sample_rate must exceed {2.0 * EXPECTED_DRIVE_BAND_HZ[1]:.0f} Hz "
                f"(twice the highest expected drive frequency), got {self.sample_rate!r}"
            )
        v_piezo = np.asarray(self.v_piezo, dtype=float)
        v_shunt = np.asarray(self.v_shunt, dtype=float)
        ldv = None if self.ldv is None else np.asarray(self.ldv, dtype=float)
        series = [v_piezo, v_shunt] + ([ldv] if ldv is not None else [])
        if any(s.ndim != 1 for s in series):
            raise InvalidProperty("trace channels must be 1-d series")
        if len({s.size for s in series}) != 1:
            raise InvalidProperty("trace channels must have equal length")
        for name, s in zip(("v_piezo", "v_shunt", "ldv"), series):
            if not np.all(np.isfinite(s)):
                raise InvalidProperty(f"trace channel {name} holds non-finite samples")
        min_len = int(np.ceil(MIN_PERIODS * self.sample_rate / EXPECTED_DRIVE_BAND_HZ[0]))
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
        for array in (v_piezo, v_shunt) + ((ldv,) if ldv is not None else ()):
            array.setflags(write=False)
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
        noise_floor: median off-tone per-bin amplitude, in the same
            displacement units as ``amplitude``.
        low_confidence: amplitude is below
            :data:`LOW_CONFIDENCE_FLOOR_RATIO` times the noise floor.
    """

    frequency: float  # Hz
    amplitude: float  # m
    noise_floor: float  # m
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
    amplitude_low_confidence: bool | None = False

    def __post_init__(self):
        if self.amplitude is not None and not self.amplitude >= 0:
            raise InvalidProperty(f"amplitude must be >= 0, got {self.amplitude!r}")


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
    header = tuple(cell.strip() for cell in next(filter(None, csv.reader(handle)), ()))
    check_header(header)
    width, values, fault = len(header), None, None
    # loadtxt warns on a body without data, so it never gets one
    first = next((line for line in handle if line.strip("\r\n")), None)
    # loadtxt strips \x1c-\x1f like blanks, float rejects them
    if first is not None and not any(c in raw for c in b"\x1c\x1d\x1e\x1f"):
        with contextlib.suppress(ValueError):
            values = np.loadtxt(itertools.chain([first], handle), delimiter=",", comments=None, ndmin=2)
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
    timing).  ``ldv_kind`` must be given when the file has an ldv column.
    Cells are numbers as Python's ``float`` reads them; blank lines are
    skipped.

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
        if len(header) == 3 and ldv_kind is None:
            raise ValueError(f"{path} has an ldv column; pass ldv_kind explicitly")

    # a contiguous copy per channel: column views are strided
    v_piezo, v_shunt, *ldv = _read_csv_table(path, check_header, MalformedTraceFile, "trace").T.copy()
    return TimeTraces(sample_rate, v_piezo, v_shunt, ldv[0] if ldv else None, ldv_kind if ldv else None)


def detect_drive_frequency(traces: TimeTraces) -> float:
    """Frequency of the dominant spectral line of v_piezo (Hz).

    Takes the largest non-DC FFT bin and refines it by quadratic
    interpolation of the log magnitudes of the bin and its neighbors.

    Raises:
        DriveFrequencyNotFound: the dominant bin falls outside
            :data:`EXPECTED_DRIVE_BAND_HZ`.
    """
    x = traces.v_piezo - np.mean(traces.v_piezo)
    magnitudes = np.abs(np.fft.rfft(x))
    if magnitudes.size < 3:
        raise DriveFrequencyNotFound("trace too short for spectral analysis")
    k = int(np.argmax(magnitudes[1:])) + 1
    delta = 0.0
    if 1 <= k < magnitudes.size - 1 and np.all(magnitudes[k - 1 : k + 2] > 0):
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


def _integer_period_length(n: int, sample_rate: float, frequency: float) -> int:
    """Largest sample count <= n covering a whole number of periods."""
    if not frequency > 0:
        raise InvalidProperty(f"drive_frequency must be positive, got {frequency!r}")
    periods = int(np.floor(n * frequency / sample_rate))
    if periods < 1:
        raise InsufficientSamples(f"trace covers less than one period of {frequency:.1f} Hz")
    return min(n, int(round(periods * sample_rate / frequency)))


def real_power_from_traces(
    traces: TimeTraces, shunt_resistance: float, drive_frequency: float | None = None
) -> float:
    """Real power delivered to the device (W).

    i(t) = v_shunt(t) / R0; P is the mean of v_piezo * i over an integer
    number of drive periods (trailing partial period dropped).  When
    ``drive_frequency`` is omitted it is detected from v_piezo.
    """
    if not shunt_resistance > 0:
        raise InvalidProperty(f"shunt_resistance must be positive, got {shunt_resistance!r}")
    frequency = drive_frequency if drive_frequency is not None else detect_drive_frequency(traces)
    m = _integer_period_length(len(traces), traces.sample_rate, frequency)
    current = traces.v_shunt[:m] / shunt_resistance
    return float(np.mean(traces.v_piezo[:m] * current))


def amplitude_from_ldv(traces: TimeTraces, drive_frequency: float | None = None) -> AmplitudeEstimate:
    """Vibration displacement amplitude from the LDV channel.

    Projects the channel onto the drive tone over an integer number of
    periods: amplitude = 2 |sum x[n] exp(-2 pi j f n / fs)| / N.  A
    velocity-kind channel is converted to displacement by dividing by
    the angular frequency.  When ``drive_frequency`` is omitted it is
    detected from v_piezo.

    The per-bin noise floor is the median off-tone FFT bin amplitude
    (excluding DC and the tone's neighborhood); estimates below 10x the
    floor are flagged low-confidence.

    Raises:
        NoLdvChannel: traces carry no LDV channel.
    """
    if traces.ldv is None:
        raise NoLdvChannel("traces have no ldv channel")
    frequency = drive_frequency if drive_frequency is not None else detect_drive_frequency(traces)
    m = _integer_period_length(len(traces), traces.sample_rate, frequency)
    x = traces.ldv[:m] - np.mean(traces.ldv[:m])
    phase = np.exp(-2j * np.pi * frequency / traces.sample_rate * np.arange(m))
    amplitude = 2.0 * np.abs(np.sum(x * phase)) / m

    bin_amplitudes = 2.0 * np.abs(np.fft.rfft(x)) / m
    tone_bin = frequency * m / traces.sample_rate
    bins = np.arange(bin_amplitudes.size)
    off_tone = (bins >= 3) & (np.abs(bins - tone_bin) > 3)
    noise_floor = float(np.median(bin_amplitudes[off_tone])) if np.any(off_tone) else 0.0

    if traces.ldv_kind == "velocity":
        omega = 2.0 * np.pi * frequency
        amplitude /= omega
        noise_floor /= omega
    return AmplitudeEstimate(
        frequency=float(frequency),
        amplitude=float(amplitude),
        noise_floor=noise_floor,
        low_confidence=bool(amplitude < LOW_CONFIDENCE_FLOOR_RATIO * noise_floor),
    )


def summarize_trial(traces: TimeTraces, shunt_resistance: float) -> TrialSummary:
    """Reduce one trial to drive frequency, power, amplitude and current.

    Traces without an LDV channel give ``amplitude`` and
    ``amplitude_low_confidence`` None.  A null capture (all channels
    identically zero) summarizes to zeros rather than failing tone
    detection; with an LDV channel, its amplitude is flagged
    low-confidence since there is no tone to measure.

    Raises:
        DriveFrequencyNotFound: non-null traces without an in-band tone.
    """
    if not shunt_resistance > 0:
        raise InvalidProperty(f"shunt_resistance must be positive, got {shunt_resistance!r}")
    has_ldv = traces.ldv is not None
    silent = not np.any(traces.v_piezo) and not np.any(traces.v_shunt)
    if silent and not (has_ldv and np.any(traces.ldv)):
        return TrialSummary(0.0, 0.0, 0.0 if has_ldv else None, 0.0, True if has_ldv else None)
    frequency = detect_drive_frequency(traces)
    estimate = amplitude_from_ldv(traces, frequency) if has_ldv else None
    rms_current = float(np.sqrt(np.mean(traces.v_shunt**2))) / shunt_resistance
    return TrialSummary(
        drive_frequency=frequency,
        real_power=real_power_from_traces(traces, shunt_resistance, frequency),
        amplitude=None if estimate is None else estimate.amplitude,
        rms_current=rms_current,
        amplitude_low_confidence=None if estimate is None else estimate.low_confidence,
    )
