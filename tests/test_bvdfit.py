import cmath
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpadlab import bvdfit
from tpadlab.circuit import BvdParams, resonant_frequency
from tpadlab.errors import (
    FitNotConverged,
    InvalidProperty,
    MalformedSpectrumFile,
    NoResonanceFound,
    TpadlabError,
)

C0 = 9.88e-9


def params_for(f_r, resistance, capacitance, c0=C0):
    inductance = 1.0 / ((2.0 * math.pi * f_r) ** 2 * capacitance)
    return BvdParams(inductance, capacitance, resistance, c0)


def test_spectrum_rejects_too_few_points():
    freqs = np.linspace(20e3, 40e3, 5)
    with pytest.raises(InvalidProperty):
        bvdfit.ImpedanceSpectrum(freqs, np.ones(5, dtype=complex))


def test_spectrum_rejects_unordered_frequencies():
    freqs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 7.0]) * 1e3
    with pytest.raises(InvalidProperty):
        bvdfit.ImpedanceSpectrum(freqs, np.ones(8, dtype=complex))


def test_spectrum_rejects_mismatched_arrays():
    freqs = np.linspace(20e3, 40e3, 9)
    with pytest.raises(InvalidProperty, match="^spectrum needs matching 1-d frequency and impedance arrays$"):
        bvdfit.ImpedanceSpectrum(freqs, np.ones(8, dtype=complex))


def test_spectrum_rejects_zero_magnitude():
    freqs = np.linspace(20e3, 40e3, 8)
    z = np.ones(8, dtype=complex)
    z[3] = 0.0
    with pytest.raises(InvalidProperty):
        bvdfit.ImpedanceSpectrum(freqs, z)


def test_initial_guess_on_clean_data():
    # lightly damped: the dip and peak sit near their lossless positions
    truth = params_for(33.1e3, 100.0, 500e-12)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201)
    guess = bvdfit.initial_guess(spectrum, C0)
    assert guess.inductance == pytest.approx(truth.inductance, rel=0.20)
    assert guess.capacitance == pytest.approx(truth.capacitance, rel=0.20)
    assert guess.resistance == pytest.approx(truth.resistance, rel=0.20)


def test_initial_guess_rejects_pure_capacitor():
    freqs = np.linspace(20e3, 40e3, 201)
    z = 1.0 / (1j * 2.0 * np.pi * freqs * C0)
    with pytest.raises(NoResonanceFound):
        bvdfit.initial_guess(bvdfit.ImpedanceSpectrum(freqs, z), C0)


def test_initial_guess_rejects_a_window_that_starts_past_the_dip():
    # the resistive bump is interior, but the |Z| minimum left of it is the window's first point
    truth = params_for(30e3, 500.0, 1e-10)
    f_s = resonant_frequency(truth)
    f_p = f_s * math.sqrt(1.0 + truth.capacitance / truth.static_capacitance)
    spectrum = bvdfit.generate_spectrum(truth, 1.002 * f_s, 1.2 * f_p, 401)
    with pytest.raises(NoResonanceFound, match="^spectrum has no interior magnitude minimum followed by a maximum"):
        bvdfit.initial_guess(spectrum, C0)


def test_initial_guess_weak_coupling_gives_small_capacitance():
    # f_p/f_s -> 1 means C -> 0 in the estimation formula
    truth = params_for(30e3, 20.0, 20e-12)
    spectrum = bvdfit.generate_spectrum(truth, f_start=29.5e3, f_stop=30.5e3, n_points=2001)
    guess = bvdfit.initial_guess(spectrum, C0)
    assert 0.0 < guess.capacitance < 4.0 * truth.capacitance


def test_noise_free_round_trip():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201)
    result = bvdfit.fit_bvd(spectrum, C0)
    assert result.converged
    assert result.params.inductance == pytest.approx(truth.inductance, rel=1e-6)
    assert result.params.capacitance == pytest.approx(truth.capacitance, rel=1e-6)
    assert result.params.resistance == pytest.approx(truth.resistance, rel=1e-6)
    assert result.residual_norm < 1e-12


def test_noisy_recovery_sample():
    # 20-trial slice of the acceptance sweep
    rng = np.random.default_rng(2024)
    for _ in range(20):
        f_r = rng.uniform(20e3, 45e3)
        truth = params_for(f_r, rng.uniform(500.0, 3000.0), rng.uniform(50e-12, 200e-12))
        spectrum = bvdfit.generate_spectrum(
            truth,
            f_start=0.95 * f_r,
            f_stop=1.06 * f_r,
            n_points=6401,
            noise=0.01,
            seed=int(rng.integers(2**63)),
        )
        result = bvdfit.fit_bvd(spectrum, C0)
        assert result.converged
        assert resonant_frequency(result.params) == pytest.approx(f_r, rel=5e-4)
        assert result.params.resistance == pytest.approx(truth.resistance, rel=0.03)
        assert result.params.inductance == pytest.approx(truth.inductance, rel=0.05)
        assert result.params.capacitance == pytest.approx(truth.capacitance, rel=0.05)


def test_window_excluding_resonance_fails_cleanly():
    truth = params_for(30e3, 1000.0, 1e-10)
    spectrum = bvdfit.generate_spectrum(truth, f_start=35e3, f_stop=40e3, n_points=201)
    with pytest.raises((NoResonanceFound, FitNotConverged)):
        bvdfit.fit_bvd(spectrum, C0)


def test_residual_zero_at_generating_parameters():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=64)
    assert bvdfit.residual(truth, spectrum) < 1e-12


def test_residual_grows_with_perturbed_damping():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=64)
    bumped = BvdParams(truth.inductance, truth.capacitance, truth.resistance * 1.1, C0)
    assert bvdfit.residual(bumped, spectrum) > bvdfit.residual(truth, spectrum)


def test_iteration_cap_reports_best_effort():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201, noise=0.01, seed=1)
    with pytest.raises(FitNotConverged) as excinfo:
        bvdfit.fit_bvd(spectrum, C0, bvdfit.FitOptions(max_iterations=1))
    best = excinfo.value.result
    assert best.iterations == 1
    assert not best.converged
    assert np.isfinite(best.residual_norm)


@pytest.mark.parametrize(
    "knobs,message",
    [
        ({"max_iterations": 0}, "fit max_iterations must be positive and finite, got 0"),
        ({"max_iterations": -1}, "fit max_iterations must be positive and finite, got -1"),
        ({"shunt_resistance": -5.0}, "fit shunt_resistance must be >= 0 and finite, got -5.0"),
        ({"shunt_resistance": math.nan}, "fit shunt_resistance must be >= 0 and finite, got nan"),
    ],
    ids=["zero-iterations", "negative-iterations", "negative-shunt", "nan-shunt"],
)
def test_fit_options_reject_out_of_range_knobs(knobs, message):
    with pytest.raises(InvalidProperty) as info:
        bvdfit.FitOptions(**knobs)
    assert str(info.value) == message


def test_four_parameter_fit_recovers_static_capacitance():
    truth = params_for(30e3, 800.0, 3e-10, c0=12e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201)
    options = bvdfit.FitOptions(fit_static_capacitance=True)
    result = bvdfit.fit_bvd(spectrum, 9.88e-9, options)
    assert result.converged
    assert result.iterations == 8
    assert result.params.static_capacitance == pytest.approx(12e-9, rel=1e-6)


# the C05 box of the acceptance gate
F_R = st.floats(20e3, 45e3)
RESISTANCE = st.floats(500.0, 3000.0)
CAPACITANCE = st.floats(50e-12, 200e-12)
EPS = np.finfo(float).eps


def _interleaved(res):
    """The log residual reordered point by point, as the Jacobian rows are: log magnitude, angle, ..."""
    out = np.empty_like(res)
    out[0::2], out[1::2] = res[: res.size // 2], res[res.size // 2 :]
    return out


@settings(max_examples=60)
@given(
    f_r=F_R,
    resistance=RESISTANCE,
    capacitance=CAPACITANCE,
    scale=st.lists(st.floats(0.9, 1.1), min_size=4, max_size=4),
    fit_c0=st.booleans(),
    shunt=st.sampled_from([0.0, 100.0]),
)
def test_jacobian_rows_match_central_differences(f_r, resistance, capacitance, scale, fit_c0, shunt):
    truth = params_for(f_r, resistance, capacitance)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201, shunt_resistance=shunt)
    # within 10 % of the truth, angle(Z/Z_meas) stays away from +-pi, where it would jump by 2 pi
    values = [truth.inductance, truth.capacitance, truth.resistance, truth.static_capacitance]
    theta = np.log(np.multiply(values, scale))[: 3 + fit_c0]
    w = 2.0 * np.pi * spectrum.frequencies

    def rows_at(theta):
        params = bvdfit._params_from_theta(theta, C0)
        z, res = bvdfit._trial(params, spectrum, shunt)
        return bvdfit._jacobian(params, z, w, shunt, theta.size > 3), res

    def central(h):
        out = []
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            # divided by the step as stored, not by 2h, which the rounding of theta +- h would bias
            out.append(_interleaved(rows_at(up)[1] - rows_at(down)[1]) / (up[i] - down[i]))
        return np.array(out)

    # The bound.  Truncation: D(h) = r' + h^2 r'''/6 + O(h^4), so |D(2h) - D(h)| is about three
    # times the truncation error of D(h).  Rounding: a residual entry is off by at most delta,
    # a few ulps of each parameter carried through |dr/d ln p| summed over all four parameters,
    # plus a few ulps from the ratio, log and angle; D(h) is then off by at most delta / h.
    h = 1e-5
    rows, res = rows_at(theta)
    d_h, d_2h = central(h), central(2.0 * h)
    all_four = theta if fit_c0 else np.append(theta, math.log(C0))
    delta = 8.0 * EPS * (1.0 + np.abs(rows_at(all_four)[0]).sum(axis=0))
    assert np.all(np.abs(rows - d_h) <= np.abs(d_2h - d_h) + 2.0 * delta / h)

    # A dot product of n terms is off by at most n eps |a| |b|, and n eps < 1e-12 at n = 402.
    hess, grad = bvdfit._normal_equations(rows, res)
    jac, norms = rows.T, np.linalg.norm(rows, axis=1)
    assert np.all(np.abs(hess - jac.T @ jac) <= 1e-12 * np.outer(norms, norms))
    assert np.all(np.abs(grad - jac.T @ _interleaved(res)) <= 1e-12 * norms * np.linalg.norm(res))


@settings(max_examples=60)
@given(f_r=F_R, resistance=RESISTANCE, capacitance=CAPACITANCE, n_points=st.sampled_from([201, 801, 6401]))
def test_fit_recovers_noise_free_spectra_across_the_c05_box(f_r, resistance, capacitance, n_points):
    truth = params_for(f_r, resistance, capacitance)
    result = bvdfit.fit_bvd(bvdfit.generate_spectrum(truth, n_points=n_points), C0)
    assert result.converged
    for name in ("inductance", "capacitance", "resistance"):
        assert getattr(result.params, name) == pytest.approx(getattr(truth, name), rel=1e-9)


def test_series_shunt_round_trip():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=201, shunt_resistance=100.0)
    result = bvdfit.fit_bvd(spectrum, C0, bvdfit.FitOptions(shunt_resistance=100.0))
    assert result.converged
    assert result.params.inductance == pytest.approx(truth.inductance, rel=1e-6)
    assert result.params.resistance == pytest.approx(truth.resistance, rel=1e-6)


def test_generator_is_seeded():
    truth = params_for(30e3, 2150.0, 1e-9)
    a = bvdfit.generate_spectrum(truth, noise=0.01, seed=11)
    b = bvdfit.generate_spectrum(truth, noise=0.01, seed=11)
    c = bvdfit.generate_spectrum(truth, noise=0.01, seed=12)
    assert np.array_equal(a.impedances, b.impedances)
    assert not np.array_equal(a.impedances, c.impedances)


def test_csv_round_trip(tmp_path):
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=33, noise=0.02, seed=8)
    path = tmp_path / "spectrum.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        bvdfit.save_impedance_csv(spectrum, handle)
    loaded = bvdfit.load_impedance_csv(path)
    assert np.allclose(loaded.frequencies, spectrum.frequencies, rtol=1e-9)
    assert np.allclose(loaded.impedances, spectrum.impedances, rtol=1e-9)


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("freq,mag,phase\n30000,500,-80\n")
    with pytest.raises(MalformedSpectrumFile):
        bvdfit.load_impedance_csv(path)


def test_csv_rejects_bad_rows(tmp_path):
    header = "frequency_hz,magnitude_ohm,phase_deg\n"
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(header + "30000,500\n")
    with pytest.raises(MalformedSpectrumFile):
        bvdfit.load_impedance_csv(ragged)
    negative = tmp_path / "negative.csv"
    negative.write_text(header + "30000,-500,-80\n")
    with pytest.raises(MalformedSpectrumFile):
        bvdfit.load_impedance_csv(negative)
    text = tmp_path / "text.csv"
    text.write_text(header + "30000,five hundred,-80\n")
    with pytest.raises(MalformedSpectrumFile):
        bvdfit.load_impedance_csv(text)
    latin = tmp_path / "latin.csv"
    latin.write_bytes(header.encode() + b"30000,500,-80\n\xff0000,500,-80\n")
    with pytest.raises(MalformedSpectrumFile, match="cannot read spectrum file"):
        bvdfit.load_impedance_csv(latin)


def _reference_load_impedance_csv(path):
    """The line-scan reader that the bulk parser replaced, kept as the reference."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise MalformedSpectrumFile(f"cannot read spectrum file {path}: {exc}") from exc
    if not rows or tuple(cell.strip() for cell in rows[0]) != bvdfit.SPECTRUM_CSV_HEADER:
        raise MalformedSpectrumFile(
            f"{path}: first row must be the header {','.join(bvdfit.SPECTRUM_CSV_HEADER)}"
        )
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise MalformedSpectrumFile(f"{path}: line {lineno} has {len(row)} fields, expected 3")
        try:
            freq, mag, phase_deg = (float(cell) for cell in row)
        except ValueError as exc:
            raise MalformedSpectrumFile(f"{path}: line {lineno} is not numeric: {row}") from exc
        if not mag > 0:
            raise MalformedSpectrumFile(f"{path}: line {lineno} magnitude must be positive")
        points.append((freq, mag * cmath.exp(1j * math.radians(phase_deg))))
    points.sort(key=lambda point: point[0])
    return bvdfit.ImpedanceSpectrum(
        np.array([point[0] for point in points], dtype=float),
        np.array([point[1] for point in points], dtype=complex),
    )


def _spectrum_rows():
    truth = params_for(30e3, 2150.0, 1e-9)
    spectrum = bvdfit.generate_spectrum(truth, n_points=41, noise=0.02, seed=3)
    return [
        f"{f:.12g},{abs(z):.12g},{math.degrees(cmath.phase(z)):.12g}\n"
        for f, z in zip(spectrum.frequencies, spectrum.impedances)
    ]


_ROWS = _spectrum_rows()
_HEAD = "frequency_hz,magnitude_ohm,phase_deg\n"

# each file is valid but for its named feature
SPECTRUM_EDGE_FILES = {
    "plain": _HEAD + "".join(_ROWS),
    "unsorted frequencies": _HEAD + "".join(_ROWS[1::2] + _ROWS[::-2]),
    "blank lines": "\n" + _HEAD + "\n" + "".join(_ROWS[:9]) + "\n\n" + "".join(_ROWS[9:]),
    "whitespace-only line": _HEAD + "".join(_ROWS[:9]) + " \n" + "".join(_ROWS[9:]),
    "comment line": _HEAD + "# analyzer export\n" + "".join(_ROWS),
    "quoted cells": _HEAD + '"30000","500",-80\n' + "".join(_ROWS),
    "underscore digits": _HEAD + "".join(_ROWS) + "31_000,500,-80\n",
    "crlf": (_HEAD + "".join(_ROWS)).replace("\n", "\r\n"),
    "trailing comma": _HEAD + "".join(_ROWS).replace("\n", ",\n"),
    "more columns than header": _HEAD + "".join(_ROWS).replace("\n", ",0\n"),
    "non-positive magnitude": _HEAD + "".join(_ROWS[:5]) + "30000,0,-80\n" + "".join(_ROWS[5:]),
    "nan magnitude": _HEAD + "".join(_ROWS[:5]) + "30000,nan,-80\n" + "".join(_ROWS[5:]),
    "negative magnitude before a text row": _HEAD + "".join(_ROWS[:5]) + "30000,-5,0\nx,1,2\n" + "".join(_ROWS[5:]),
    "text row before a negative magnitude": _HEAD + "".join(_ROWS[:5]) + "x,1,2\n30000,-5,0\n" + "".join(_ROWS[5:]),
    "duplicate frequency": _HEAD + "".join(_ROWS + _ROWS[:1]),
    "single data row": _HEAD + _ROWS[0],
    "header only": _HEAD,
    "empty": "",
    "wrong header": "freq,mag,phase\n" + "".join(_ROWS),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", SPECTRUM_EDGE_FILES.values(), ids=SPECTRUM_EDGE_FILES.keys())
def test_spectrum_reader_matches_line_scan_reference(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    outcomes = []
    for load in (_reference_load_impedance_csv, bvdfit.load_impedance_csv):
        try:
            outcomes.append(load(path))
        except TpadlabError as exc:
            outcomes.append(exc)
    expected, loaded = outcomes
    if isinstance(expected, Exception):
        assert type(loaded) is type(expected)
        assert str(loaded) == str(expected)
        return
    assert np.array_equal(loaded.frequencies, expected.frequencies)
    assert np.array_equal(loaded.impedances, expected.impedances)


def test_model_impedance_adds_series_shunt():
    truth = params_for(30e3, 2150.0, 1e-9)
    bare = bvdfit.model_impedance(truth, 30e3)
    shunted = bvdfit.model_impedance(truth, 30e3, shunt_resistance=100.0)
    assert shunted == pytest.approx(bare + 100.0, rel=1e-15)
