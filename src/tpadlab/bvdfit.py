"""Equivalent-circuit parameter recovery from impedance spectra.

Fits the motional branch (L, C, R) of the parallel-resonator network in
:mod:`tpadlab.circuit` to measured complex impedance points.  The static
capacitance C0 is treated as known and held fixed (an option unlocks it).

The objective is a log-complex least squares: for each point the
residual is log|Z_model/Z_meas| plus j*angle(Z_model/Z_meas), and the
cost is the sum of squared real and imaginary residual parts.  Working
in log magnitude keeps the parallel-resonance peak (impedance orders of
magnitude above the dip) from dominating the fit.  Minimization is a
damped Gauss-Newton (Levenberg-Marquardt) iteration over the logarithms
of the parameters, which enforces positivity without constraints.  It
starts from one weighted linear least-squares solve, which the model
admits once C0 is known (see :func:`initial_guess`).
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import BvdParams, impedance, resonant_frequency
from .dataio import _read_csv_table
from .errors import FitNotConverged, InvalidProperty, MalformedSpectrumFile, NoResonanceFound, record, require_positive, shown
from .units import MAX_POINTS, csv_table

MIN_POINTS = 8

SPECTRUM_CSV_HEADER = ("frequency_hz", "magnitude_ohm", "phase_deg")

STEP_TOLERANCE = 1e-10
RESIDUAL_TOLERANCE = 1e-12


@record(eq=False)
class ImpedanceSpectrum:
    """Frequency-indexed complex impedance measurements.

    Attributes:
        frequencies: strictly increasing sample frequencies (Hz).
        impedances: complex impedance at each frequency (Ohm).
    """

    frequencies: np.ndarray  # Hz
    impedances: np.ndarray  # complex Ohm

    def __post_init__(self):
        f = np.array(self.frequencies, dtype=float)
        z = np.array(self.impedances, dtype=complex)
        if f.ndim != 1 or z.ndim != 1 or f.shape != z.shape:
            raise InvalidProperty("spectrum needs matching 1-d frequency and impedance arrays")
        if f.size < MIN_POINTS:
            raise InvalidProperty(f"spectrum needs at least {MIN_POINTS} points, got {f.size}")
        if not np.all(np.isfinite(f)) or not np.all(np.isfinite(z)):
            raise InvalidProperty("spectrum contains non-finite values")
        if not np.all(np.diff(f) > 0):
            raise InvalidProperty("spectrum frequencies must be strictly increasing")
        if not (f[0] > 0 and np.all(np.abs(z) > 0)):
            raise InvalidProperty("spectrum frequencies and impedance magnitudes must be positive")
        f.setflags(write=False)
        z.setflags(write=False)
        vars(self).update(frequencies=f, impedances=z)

    def __len__(self) -> int:
        return int(self.frequencies.size)


@record
class FitResult:
    """Outcome of one least-squares refinement.

    Attributes:
        params: fitted circuit parameters.
        residual_norm: objective value at ``params`` (see :func:`residual`).
        iterations: accepted Gauss-Newton steps taken.
        converged: whether a convergence criterion was met.
    """

    params: BvdParams
    residual_norm: float
    iterations: int
    converged: bool


@record
class FitOptions:
    """Knobs for :func:`fit_bvd`.

    Attributes:
        max_iterations: iteration cap before FitNotConverged.
        fit_static_capacitance: unlock C0 as a fourth parameter.
        shunt_resistance: when set, a series resistance added to the
            model (for spectra derived end-to-end through the shunt).
    """

    max_iterations: int = 500
    fit_static_capacitance: bool = False
    shunt_resistance: float = 0.0

    def __post_init__(self):
        require_positive(self, "fit ", "max_iterations")
        if not isinstance(self.max_iterations, (int, np.integer)):
            raise InvalidProperty(f"fit max_iterations must be an integer, got {self.max_iterations!r}")
        require_positive(self, "fit ", "shunt_resistance", allow_zero=True)


def model_impedance(params: BvdParams, frequencies, shunt_resistance: float = 0.0):
    """Network impedance at ``frequencies``, plus an optional series shunt, added in place."""
    z = impedance(params, frequencies)
    z += shunt_resistance
    return z


def _trial(params: BvdParams, spectrum: ImpedanceSpectrum, shunt: float) -> tuple[np.ndarray, np.ndarray]:
    """Model impedance Z at ``params``, and the log residual written in place: log|Z/Z_meas|, then angle(Z/Z_meas),
    not interleaved as the Jacobian rows are, as the cost sums in this order and another order can flip a tied step."""
    z = model_impedance(params, spectrum.frequencies, shunt)
    ratio = z / spectrum.impedances
    res = np.empty(2 * ratio.size)
    np.log(np.abs(ratio), out=res[: ratio.size])
    np.arctan2(ratio.imag, ratio.real, out=res[ratio.size :])
    return z, res


def residual(params: BvdParams, spectrum: ImpedanceSpectrum, shunt_resistance: float = 0.0) -> float:
    """Objective value: sum of squared log-magnitude and phase residuals.

    Zero iff the model matches every point exactly.
    """
    r = _trial(params, spectrum, shunt_resistance)[1]
    return float(r @ r)


@np.errstate(all="ignore")  # a singular solve or an overflow gives a non-finite value, which is refused
def initial_guess(spectrum: ImpedanceSpectrum, c0: float) -> BvdParams:
    """Starting parameters from one weighted linear least-squares solve.

    With C0 known, the motional impedance Z_m = 1/(1/Z - jwC0) = R + j(wL - D/w), with D = 1/C, is
    linear in R, L and D (Levy 1959; Sanathanan & Koerner 1963).  R is the weighted mean of Re Z_m,
    and L and D solve the 2x2 normal equations of Im Z_m in the columns u = w/w_mid and -1/u.  A
    point's weight is |d ln Z/d Z_m|^2 = |Z/Z_m^2|^2, so the solve minimizes, to first order, the log
    residual that :func:`fit_bvd` refines.  The start has no series shunt.

    Raises:
        NoResonanceFound: L, C or R comes out not positive and finite.
    """
    require_positive(locals(), "", "c0")
    w = 2.0 * np.pi * spectrum.frequencies
    z = spectrum.impedances
    z_m = 1.0 / (1.0 / z - 1j * w * c0)
    weight = np.abs(z / z_m**2)
    weight = (weight / weight.max()) ** 2  # scaled to at most 1, so that the sums below cannot overflow
    w_mid = math.sqrt(w[0] * w[-1])
    u, x = w / w_mid, z_m.imag
    # [[p, -q], [-q, s]] (a, b) = (g, h) are the normal equations of Im Z_m = a u - b/u
    p, q, s = weight @ u**2, weight.sum(), weight @ u**-2
    g, h = weight @ (u * x), -(weight @ (x / u))
    det = p * s - q * q
    l = float((s * g + q * h) / det / w_mid)
    c = float(det / ((q * g + p * h) * w_mid))
    r = float(weight @ z_m.real / q)
    if not all(math.isfinite(v) and v > 0 for v in (l, c, r)):
        raise NoResonanceFound(
            f"spectrum shows no usable resonance: the linear start gives L={l:.3g} H, C={c:.3g} F, R={r:.3g} Ohm"
        )
    return BvdParams(inductance=l, capacitance=c, resistance=r, static_capacitance=c0)


def _params_from_theta(theta: np.ndarray, c0: float) -> BvdParams:
    l, c, r = np.exp(theta[:3])
    return BvdParams(float(l), float(c), float(r), float(np.exp(theta[3])) if len(theta) > 3 else c0)


def _jacobian(params: BvdParams, z: np.ndarray, w: np.ndarray, shunt: float, fit_c0: bool) -> np.ndarray:
    """Rows d r / d ln p of the log residual at ``params``, from its model impedance ``z`` at angular frequencies ``w``.

    A row is the interleaved real/imaginary view of d ln Z / d ln p: g {jwL, j/(wC), R}, g = Z_n^2 / (Z_m^2 Z), with
    Z_n = Z - shunt and Z_m = R + jX1, then -jwC0 Z_n^2 / Z for C0.  In place, as fresh temporaries cost page faults.
    """
    l, c, r = params.inductance, params.capacitance, params.resistance
    x_l = w * l
    x_c = 1.0 / (w * c)
    g = r + 1j * (x_l - x_c)
    np.divide(z - shunt, g, out=g)
    g **= 2
    g /= z
    rows = np.empty((3 + fit_c0, len(w)), complex)
    np.multiply(g, x_l, out=rows[0])
    np.multiply(g, x_c, out=rows[1])
    rows[:2] *= 1j
    np.multiply(g, r, out=rows[2])
    if fit_c0:
        rows[3] = -1j * w * params.static_capacitance * (z - shunt) ** 2 / z
    return rows.view(float)


def _normal_equations(rows: np.ndarray, res: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r from the Jacobian rows, as dot products of contiguous rows; ``res`` in :func:`_trial`'s layout."""
    hess = np.empty((len(rows), len(rows)))
    for i in range(len(rows)):
        for j in range(i + 1):
            hess[i, j] = hess[j, i] = rows[i] @ rows[j]
    r = np.empty_like(res)  # interleaved, point by point, as the rows are
    r[0::2], r[1::2] = res[: res.size // 2], res[res.size // 2 :]
    return hess, rows @ r


@np.errstate(all="ignore")  # a step that leaves float range has a non-finite cost and is rejected
def fit_bvd(spectrum: ImpedanceSpectrum, c0: float, options: FitOptions | None = None) -> FitResult:
    """Recover (L, C, R) -- optionally C0 -- by damped Gauss-Newton.

    Starts from :func:`initial_guess` on the spectrum, iterates
    Levenberg-Marquardt steps in log-parameter space, and stops when the
    relative parameter step or the relative cost improvement falls below
    :data:`STEP_TOLERANCE` or :data:`RESIDUAL_TOLERANCE`.

    Raises:
        NoResonanceFound: propagated from :func:`initial_guess`.
        FitNotConverged: iteration cap hit or damping diverged; the
            exception's ``result`` holds the best parameters seen.
    """
    opts = options or FitOptions()
    shunt = opts.shunt_resistance
    start = initial_guess(spectrum, c0)
    fit_c0 = opts.fit_static_capacitance

    theta = np.log([start.inductance, start.capacitance, start.resistance])
    if fit_c0:
        theta = np.append(theta, math.log(start.static_capacitance))

    w = 2.0 * np.pi * spectrum.frequencies
    params = _params_from_theta(theta, c0)
    z, res = _trial(params, spectrum, shunt)
    cost = float(res @ res)
    if not np.isfinite(cost):
        raise FitNotConverged("objective is not finite at the starting point", FitResult(params, cost, 0, False))

    lam = 1e-3
    iterations = 0
    for _ in range(opts.max_iterations):
        hess, grad = _normal_equations(_jacobian(params, z, w, shunt, fit_c0), res)
        diag = np.diag(np.maximum(np.diag(hess), 1e-30))

        # inner damping loop: inflate lambda until a step lowers the cost
        while True:
            try:
                step = np.linalg.solve(hess + lam * diag, -grad)
                new_params = _params_from_theta(theta + step, c0)
            except (np.linalg.LinAlgError, InvalidProperty):  # singular, or a parameter left float range
                step = None
            if step is not None:
                new_z, new_res = _trial(new_params, spectrum, shunt)
                new_cost = float(new_res @ new_res)
                if np.isfinite(new_cost) and new_cost <= cost:
                    break
            lam *= 3.0
            if lam > 1e12:
                raise FitNotConverged(
                    f"damping diverged after {iterations} accepted steps",
                    FitResult(params, cost, iterations, False),
                )

        iterations += 1
        converged = np.max(np.abs(step)) < STEP_TOLERANCE or cost - new_cost <= RESIDUAL_TOLERANCE * max(cost, 1e-300)
        theta, params, z, res, cost = theta + step, new_params, new_z, new_res, new_cost
        lam = max(lam / 3.0, 1e-12)
        if converged:
            break
    else:
        raise FitNotConverged(
            f"no convergence within {opts.max_iterations} iterations",
            FitResult(params, cost, iterations, False),
        )

    return FitResult(params=params, residual_norm=cost, iterations=iterations, converged=True)


@np.errstate(all="ignore")  # a spectrum that leaves float range is rejected as non-finite
def generate_spectrum(
    params: BvdParams,
    f_start: float | None = None,
    f_stop: float | None = None,
    n_points: int = 201,
    noise: float = 0.0,
    seed: int | None = None,
    shunt_resistance: float = 0.0,
) -> ImpedanceSpectrum:
    """Synthesize a measurement-like spectrum from known parameters.

    The default window is [0.9, 1.1] times the resonance, wide enough to
    include both the dip and the peak for any C/C0 ratio up to ~0.2.
    ``noise`` is the relative standard deviation of multiplicative
    complex Gaussian noise per quadrature (0.01 means 1%).

    Raises:
        InvalidProperty: fewer than :data:`MIN_POINTS` or more than
            :data:`~tpadlab.units.MAX_POINTS` points, a seed below 0, either
            not an integer, or a spectrum that leaves float range.
    """
    if not isinstance(n_points, (int, np.integer)):
        raise InvalidProperty(f"n_points must be an integer, got {n_points!r}")
    if not isinstance(seed, (int, np.integer, type(None))):
        raise InvalidProperty(f"seed must be an integer or None, got {seed!r}")
    if n_points < MIN_POINTS:
        raise InvalidProperty(f"spectrum needs at least {MIN_POINTS} points, got {shown(int(n_points))}")
    if n_points > MAX_POINTS:
        raise InvalidProperty(f"spectrum may have at most {MAX_POINTS} points, got {shown(int(n_points))}")
    if seed is not None and seed < 0:
        raise InvalidProperty(f"seed must be non-negative, got {shown(int(seed))}")
    f_r = resonant_frequency(params)
    f_lo = f_start if f_start is not None else 0.9 * f_r
    f_hi = f_stop if f_stop is not None else 1.1 * f_r
    freqs = np.linspace(f_lo, f_hi, n_points)
    z = model_impedance(params, freqs, shunt_resistance)
    if noise:
        rng = np.random.default_rng(seed)
        z = z * (1.0 + noise * (rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)))
    return ImpedanceSpectrum(frequencies=freqs, impedances=z)


def load_impedance_csv(path) -> ImpedanceSpectrum:
    """Read a spectrum CSV with header ``frequency_hz,magnitude_ohm,phase_deg``.

    Rows may be in any frequency order; phase is in degrees.  Cells are
    read as Python's ``float`` reads them; blank lines are skipped.

    Raises:
        MalformedSpectrumFile: unreadable file, wrong header, ragged or
            non-numeric rows, or non-positive magnitude.
        InvalidProperty: parsed values violate spectrum invariants.
    """

    def check_header(header):
        if header != SPECTRUM_CSV_HEADER:
            raise MalformedSpectrumFile(
                f"{path}: first row must be the header {','.join(SPECTRUM_CSV_HEADER)}"
            )

    values = _read_csv_table(path, check_header, MalformedSpectrumFile, "spectrum", positive=(1, "magnitude"))
    freq, mag, phase_deg = values[np.argsort(values[:, 0], kind="stable")].T
    with np.errstate(all="ignore"):  # an inf or nan cell: ImpedanceSpectrum rejects the result
        impedances = mag * np.exp(1j * np.radians(phase_deg))
    return ImpedanceSpectrum(frequencies=freq, impedances=impedances)


def save_impedance_csv(spectrum: ImpedanceSpectrum, handle) -> None:
    """Write a spectrum to an open text stream in the CSV interchange format."""
    z = spectrum.impedances
    rows = zip(spectrum.frequencies.tolist(), np.hypot(z.real, z.imag).tolist(), np.degrees(np.angle(z)).tolist())
    handle.write("\n".join(csv_table(",".join(SPECTRUM_CSV_HEADER), rows)) + "\n")
