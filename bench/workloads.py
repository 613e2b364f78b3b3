"""Seeded inputs and per-operation expectations for each workload.

Everything here runs in the benchmark's parent process, before timing
starts, and uses only numpy: no tpadlab function makes or checks an
input.  Each workload is one *round* of operations; a run repeats the
round whole, so every run attempts the same mix.

An operation is a dict ``{"argv": [...], "check": {...}}`` where
``argv`` is a ``tpadlab`` command line and ``check`` holds what
:mod:`checks` needs to judge its output.  ``"known_fault": true`` marks
an operation that fails because of a named fault in the program.
"""

from __future__ import annotations

import math
import os

import numpy as np

# The eight library glasses and the shared actuator, as the paper's
# tables give them: (name, thickness m, density kg/m3, Young's modulus Pa).
GLASSES = (
    ("SLG_0.4", 0.4e-3, 2483.0, 71e9),
    ("SLG_0.56", 0.56e-3, 2483.0, 71e9),
    ("SLG_0.7", 0.7e-3, 2483.0, 71e9),
    ("D263_0.4", 0.4e-3, 2510.0, 72.9e9),
    ("D263_0.56", 0.56e-3, 2510.0, 72.9e9),
    ("Gorilla_0.56", 0.56e-3, 2420.0, 71.5e9),
    ("Gorilla_0.8", 0.8e-3, 2420.0, 71.5e9),
    ("BoroFloat_0.7", 0.7e-3, 2200.0, 64e9),
)
ACTUATOR = {"thickness": 0.3e-3, "density": 7900.0, "youngs_modulus": 84e9}

# trial-reduce: one capture length, tones on the library excitation band
TRACE_RATE_HZ = 500e3
TRACE_RATE_TEXT = "500kHz"
TRACE_SAMPLES = 50_000
EXCITATION_BAND_HZ = (22.4e3, 44.6e3)
TRACE_NOISE = 1e-5  # noise RMS per channel, relative to the channel's amplitude
# The quarter-bin tone that the drive-frequency interpolation misplaces
# (see the README); its inputs are fixed so it fails on every seed alike.
OFF_BIN_TONE_HZ = 30002.5
OFF_BIN_NOISE_SEED = 20190

# spectrum-fit: the C05 parameter box of the acceptance gate
FIT_POINTS = 6401
FIT_C0_F = 9.88e-9
FIT_C0_TEXT = "9.88nF"
FIT_SPECTRA = 8
FIT_NOISE = 0.01

# design-sweep: the C07 axis ranges, with the unit each is written in
SWEEP_POINTS = 2001
SWEEP_AXES = {
    # axis: (low SI, high SI, suffix, SI per suffix unit, decimals)
    "thickness": (0.3e-3, 1.0e-3, "mm", 1e-3, 4),
    "density": (2000.0, 2600.0, "g/cm3", 1e3, 4),
    "youngs_modulus": (60e9, 80e9, "GPa", 1e9, 3),
}

WORKLOADS = ("trial-reduce", "spectrum-fit", "design-sweep", "cold-start")


def _quantity(value_si: float, suffix: str, scale: float, decimals: int) -> tuple[str, float]:
    """Text with a unit suffix, and the SI value the CLI parses from it."""
    number = f"{value_si / scale:.{decimals}f}"
    return number + suffix, float(number) * scale


def _capture(rng, path, tone_hz, shunt_ohm, ldv_kind):
    """Write one capture of a single tone and return its check record."""
    t = np.arange(TRACE_SAMPLES) / TRACE_RATE_HZ
    omega = 2.0 * math.pi * tone_hz
    v_p = rng.uniform(10.0, 60.0)
    v_s = rng.uniform(0.1, 1.0)
    phi = rng.uniform(-1.2, 1.2)
    alpha = rng.uniform(0.0, 2.0 * math.pi)

    def noise(scale):
        return TRACE_NOISE * scale * rng.standard_normal(TRACE_SAMPLES)

    channels = [
        v_p * np.sin(omega * t + alpha) + noise(v_p),
        v_s * np.sin(omega * t + alpha - phi) + noise(v_s),
    ]
    header = "v_piezo,v_shunt"
    amplitude = None
    if ldv_kind is not None:
        amplitude = rng.uniform(0.5e-6, 5e-6)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if ldv_kind == "displacement":
            channels.append(amplitude * np.sin(omega * t + theta) + noise(amplitude))
        else:
            speed = amplitude * omega
            channels.append(speed * np.cos(omega * t + theta) + noise(speed))
        header += ",ldv"
    np.savetxt(path, np.column_stack(channels), fmt="%.9g", delimiter=",", header=header, comments="")
    return {
        "kind": "trial",
        "file": path,
        "tone_hz": tone_hz,
        "v_piezo": v_p,
        "v_shunt": v_s,
        "phase": phi,
        "shunt_ohm": shunt_ohm,
        "amplitude_m": amplitude,
        "samples": TRACE_SAMPLES,
        "sample_rate_hz": TRACE_RATE_HZ,
        "noise": TRACE_NOISE,
    }


def _trial_op(check, ldv_kind, shunt_text):
    argv = ["reduce-traces", check["file"], "--sample-rate", TRACE_RATE_TEXT, "--shunt", shunt_text]
    if ldv_kind is not None:
        argv += ["--ldv-kind", ldv_kind]
    return {"argv": argv, "check": check}


def trial_reduce(rng, workdir, limit=None):
    """Eight captures: two without LDV, four seeded LDV, two fixed off-bin LDV.

    Seeded tones sit on an FFT bin of the capture, anywhere in the
    excitation band.  The two fixed captures put the tone a quarter bin
    off, where the amplitude comes out about 4 % low.
    """
    bin_hz = TRACE_RATE_HZ / TRACE_SAMPLES
    k_lo = math.ceil(EXCITATION_BAND_HZ[0] / bin_hz)
    k_hi = math.floor(EXCITATION_BAND_HZ[1] / bin_hz)
    plan = [None, "displacement", "velocity", None, "displacement", "velocity"]
    ops = []
    for index, ldv_kind in enumerate(plan[:limit]):
        shunt_text = f"{rng.uniform(20.0, 200.0):.1f}ohm"
        shunt = float(shunt_text[:-3])
        tone = int(rng.integers(k_lo, k_hi + 1)) * bin_hz
        path = os.path.join(workdir, f"capture{index}.csv")
        ops.append(_trial_op(_capture(rng, path, tone, shunt, ldv_kind), ldv_kind, shunt_text))
    if limit is not None:
        return ops
    fixed = np.random.default_rng(OFF_BIN_NOISE_SEED)
    for index, ldv_kind in enumerate(("displacement", "velocity")):
        path = os.path.join(workdir, f"offbin{index}.csv")
        op = _trial_op(_capture(fixed, path, OFF_BIN_TONE_HZ, 100.0, ldv_kind), ldv_kind, "100ohm")
        op["known_fault"] = True
        ops.append(op)
    return ops


def bvd_impedance(frequency, inductance, capacitance, resistance, c0):
    """Static capacitance in parallel with the series L-C-R branch."""
    w = 2.0 * np.pi * frequency
    z_m = resistance + 1j * (w * inductance - 1.0 / (w * capacitance))
    z_s = 1.0 / (1j * w * c0)
    return z_m * z_s / (z_m + z_s)


def spectrum_fit(rng, workdir, limit=None):
    """Noisy spectra drawn from the C05 box, one ``fit`` call each."""
    ops = []
    for index in range(FIT_SPECTRA if limit is None else limit):
        f_r = rng.uniform(20e3, 45e3)
        resistance = rng.uniform(500.0, 3000.0)
        capacitance = rng.uniform(50e-12, 200e-12)
        inductance = 1.0 / ((2.0 * math.pi * f_r) ** 2 * capacitance)
        freqs = np.linspace(0.95 * f_r, 1.06 * f_r, FIT_POINTS)
        z = bvd_impedance(freqs, inductance, capacitance, resistance, FIT_C0_F)
        z = z * (1.0 + FIT_NOISE * (rng.standard_normal(FIT_POINTS) + 1j * rng.standard_normal(FIT_POINTS)))
        path = os.path.join(workdir, f"spectrum{index}.csv")
        np.savetxt(
            path,
            np.column_stack([freqs, np.abs(z), np.degrees(np.angle(z))]),
            fmt="%.12g",
            delimiter=",",
            header="frequency_hz,magnitude_ohm,phase_deg",
            comments="",
        )
        ops.append(
            {
                "argv": ["fit", "--input", path, "--c0", FIT_C0_TEXT],
                "check": {
                    "kind": "fit",
                    "resonant_frequency_hz": f_r,
                    "inductance_h": inductance,
                    "capacitance_f": capacitance,
                    "resistance_ohm": resistance,
                    "c0_f": FIT_C0_F,
                },
            }
        )
    return ops


def _glass(name):
    for glass in GLASSES:
        if glass[0] == name:
            return {"name": name, "thickness": glass[1], "density": glass[2], "youngs_modulus": glass[3]}
    raise KeyError(name)


def _sweep_op(rng, name, axis):
    low, high, suffix, scale, decimals = SWEEP_AXES[axis]
    margin = 0.1 * (high - low)
    lo_text, lo = _quantity(rng.uniform(low, low + margin), suffix, scale, decimals)
    hi_text, hi = _quantity(rng.uniform(high - margin, high), suffix, scale, decimals)
    return {
        "argv": ["beam", "--glass", name, "--sweep", axis, "--grid", f"{lo_text}:{hi_text}:{SWEEP_POINTS}"],
        "check": {"kind": "sweep", "glass": _glass(name), "axis": axis, "low": lo, "high": hi, "count": SWEEP_POINTS},
    }


def design_sweep(rng, workdir, limit=None):
    """Every glass along every axis, in a seeded order, with seeded grid ends."""
    pairs = [(g[0], axis) for g in GLASSES for axis in SWEEP_AXES]
    order = rng.permutation(len(pairs))
    return [_sweep_op(rng, *pairs[i]) for i in order[:limit]]


def cold_start(rng, workdir, limit=None):
    """The five quick subcommands, each in a fresh interpreter."""
    f_text, freq = _quantity(rng.uniform(16e3, 160e3), "kHz", 1e3, 3)
    l_text, inductance = _quantity(rng.uniform(10e-3, 50e-3), "mH", 1e-3, 3)
    c_text, capacitance = _quantity(rng.uniform(0.5e-9, 2e-9), "nF", 1e-9, 4)
    resistance = round(float(rng.uniform(500.0, 3000.0)), 1)
    v_text, voltage = _quantity(rng.uniform(10.0, 60.0), "V", 1.0, 2)
    reference = GLASSES[int(rng.integers(len(GLASSES)))][0]
    ops = [
        {"argv": ["materials", "--list"], "check": {"kind": "materials"}},
        {
            "argv": ["friction", "--model", "contour", "--freq", f_text],
            "check": {"kind": "contour", "frequency_hz": freq},
        },
        {
            "argv": [
                "circuit",
                "--inductance", l_text,
                "--capacitance", c_text,
                "--resistance", str(resistance),
                "--c0", FIT_C0_TEXT,
                "--voltage", v_text,
            ],
            "check": {
                "kind": "circuit",
                "inductance_h": inductance,
                "capacitance_f": capacitance,
                "resistance_ohm": resistance,
                "c0_f": FIT_C0_F,
                "voltage_v": voltage,
                "shunt_ohm": 100.0,
            },
        },
        {"argv": ["predict-power", "--reference", reference], "check": {"kind": "power", "reference": reference}},
        {"argv": ["repro", "fig11"], "check": {"kind": "power", "reference": "SLG_0.4"}},
    ]
    return ops[:limit]


GENERATORS = {
    "trial-reduce": trial_reduce,
    "spectrum-fit": spectrum_fit,
    "design-sweep": design_sweep,
    "cold-start": cold_start,
}

# Per workload: the percentile reported as op_tail_ms, and the fewest
# operations a run makes, so that at least ten lie beyond that percentile.
TAIL_PERCENT = {"trial-reduce": 95, "spectrum-fit": 95, "design-sweep": 95, "cold-start": 90}


def min_ops(workload: str) -> int:
    return max(40, math.ceil(1000 / (100 - TAIL_PERCENT[workload])))


def make_round(workload: str, seed: int, workdir: str, limit=None) -> list[dict]:
    """Write the inputs of one round of ``workload`` and return its operations."""
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return GENERATORS[workload](rng, workdir, limit)
