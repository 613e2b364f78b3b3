"""Output checks for every benchmark operation.

Each check compares a ``tpadlab`` CSV output against values computed
here, apart from the program, or against a property the method must
have.  None compares against a stored copy of earlier output.

:func:`check` returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import ACTUATOR, GLASSES

# bounds of the C05 acceptance criterion, relative to the synthesized truth
FIT_BOUNDS = {"resonant_frequency_hz": 5e-4, "resistance_ohm": 0.03, "inductance_h": 0.05, "capacitance_f": 0.05}
AMPLITUDE_BOUND = 0.01
# the drive-frequency estimate of an on-bin tone may move by this many bins
FREQUENCY_BINS = 0.1
# relative slack for floating-point order of operations, far below a printed digit
ROUNDING_SLACK = 1e-13


def printed_tolerance(expected):
    """Half a unit of the 12th significant digit of ``expected``, plus rounding slack.

    The CLI prints every value with ``format(v, ".12g")``.
    """
    magnitude = np.abs(np.asarray(expected, dtype=float))
    exponent = np.floor(np.log10(np.where(magnitude > 0, magnitude, 1.0)))
    return 0.5 * 10.0 ** (exponent - 11) + ROUNDING_SLACK * magnitude


def _mismatch(name, printed, expected):
    printed = np.asarray(printed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    off = np.abs(printed - expected) > printed_tolerance(expected)
    if np.any(off):
        i = int(np.argmax(off))
        return f"{name} row {i}: printed {float(printed.flat[i])!r}, expected {float(expected.flat[i])!r}"
    return None


def _table(stdout, header):
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"header is {lines[0] if lines else None!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def amplification_number(thickness, density, youngs_modulus):
    """n = 12 [(1/12) (D1'/E_p)^(1/3) (rho_a h_a / (h_p^2 rho_p) + 1/h_p)]^(3/4).

    D1' = E_p h_p^3/3 + E_a (h_a^3/3 + h_p h_a^2 + h_p^2 h_a), per unit width.
    """
    h_a, rho_a, e_a = ACTUATOR["thickness"], ACTUATOR["density"], ACTUATOR["youngs_modulus"]
    h_p = np.asarray(thickness, dtype=float)
    d1 = youngs_modulus * h_p**3 / 3.0 + e_a * (h_a**3 / 3.0 + h_p * h_a**2 + h_p**2 * h_a)
    inner = (d1 / youngs_modulus) ** (1.0 / 3.0) * (rho_a * h_a / (h_p**2 * density) + 1.0 / h_p) / 12.0
    return 12.0 * inner**0.75


def _check_trial(spec, stdout):
    rows = _table(
        stdout, "file,drive_frequency_hz,real_power_w,amplitude_m,rms_current_a,amplitude_low_confidence"
    )
    if len(rows) != 1 or rows[0][0] != spec["file"]:
        return f"expected one row for {spec['file']}, got {rows}"
    frequency, power, amplitude, current, low_confidence = rows[0][1:]
    n, rate, eps = spec["samples"], spec["sample_rate_hz"], spec["noise"]
    tone, r0 = spec["tone_hz"], spec["shunt_ohm"]
    # |mean over m samples of cos(2 theta k + c)| <= 1 / (m sin theta): a partial period
    partial = 1.0 / ((n - rate / tone) * math.sin(2.0 * math.pi * tone / rate))
    if abs(float(frequency) - tone) > FREQUENCY_BINS * rate / n:
        return f"drive frequency {frequency} Hz, synthesized {tone} Hz"
    # six standard deviations of the noise cross terms, plus the partial period
    scale = spec["v_piezo"] * spec["v_shunt"] / (2.0 * r0)
    expected = scale * math.cos(spec["phase"])
    if abs(float(power) - expected) > scale * (12.0 * eps / math.sqrt(n) + partial):
        return f"real power {power} W, expected {expected!r}"
    expected = spec["v_shunt"] / (math.sqrt(2.0) * r0)
    bound = 0.5 * (partial + 12.0 * math.sqrt(2.0) * eps / math.sqrt(n) + 2.0 * eps * eps)
    if abs(float(current) / expected - 1.0) > bound:
        return f"rms current {current} A, expected {expected!r}"
    if spec["amplitude_m"] is None:
        if amplitude or low_confidence:
            return f"capture without LDV reports amplitude {amplitude!r}, flag {low_confidence!r}"
        return None
    if abs(float(amplitude) / spec["amplitude_m"] - 1.0) > AMPLITUDE_BOUND:
        return f"amplitude {amplitude} m, synthesized {spec['amplitude_m']!r}"
    if low_confidence != "false":
        return "amplitude of a clean tone flagged low-confidence"
    return None


def _check_fit(spec, stdout):
    rows = _table(
        stdout,
        "inductance_h,capacitance_f,resistance_ohm,static_capacitance_f,"
        "resonant_frequency_hz,residual_norm,iterations,converged",
    )
    if len(rows) != 1:
        return f"expected one row, got {len(rows)}"
    fields = dict(zip(("inductance_h", "capacitance_f", "resistance_ohm", "c0_f", "resonant_frequency_hz"), rows[0]))
    if rows[0][7] != "true":
        return "fit reports converged=false"
    if float(fields["c0_f"]) != spec["c0_f"]:
        return f"static capacitance moved to {fields['c0_f']}"
    for name, bound in FIT_BOUNDS.items():
        error = abs(float(fields[name]) / spec[name] - 1.0)
        if not error <= bound:
            return f"{name} off by {error:.2e}, bound {bound}"
    return None


def _check_sweep(spec, stdout):
    rows = _table(stdout, "axis_value,n,n_squared")
    if len(rows) != spec["count"]:
        return f"{len(rows)} rows, expected {spec['count']}"
    printed = np.array(rows, dtype=float)
    grid = np.linspace(spec["low"], spec["high"], spec["count"])
    glass = dict(spec["glass"])
    glass[spec["axis"]] = grid
    n = amplification_number(glass["thickness"], glass["density"], glass["youngs_modulus"])
    reason = (
        _mismatch("axis_value", printed[:, 0], grid)
        or _mismatch("n", printed[:, 1], n)
        or _mismatch("n_squared", printed[:, 2], n * n)
    )
    if reason:
        return reason
    if not np.all(np.diff(printed[:, 2]) < 0):
        return f"n_squared does not strictly decrease along {spec['axis']}"
    return None


def _check_materials(spec, stdout):
    rows = _table(stdout, "name,thickness_m,density_kg_m3,youngs_modulus_pa")
    if [row[0] for row in rows] != [g[0] for g in GLASSES]:
        return f"library lists {[row[0] for row in rows]}"
    values = np.array([row[1:] for row in rows], dtype=float)
    return _mismatch("materials", values, np.array([g[1:] for g in GLASSES]))


def _check_contour(spec, stdout):
    rows = _table(stdout, "model,frequency_hz,amplitude_um")
    f = spec["frequency_hz"]
    return _mismatch("amplitude_um", float(rows[0][2]), 1.755e4 * f**-0.797 - 0.937)


def _check_circuit(spec, stdout):
    rows = _table(
        stdout,
        "frequency_hz,x0_ohm,x1_ohm,z_real_ohm,z_imag_ohm,z_abs_ohm,u_g_v,u_g_exact_v,i_g_a,delta_p_w",
    )
    l, c, r = spec["inductance_h"], spec["capacitance_f"], spec["resistance_ohm"]
    f_r = 1.0 / (2.0 * math.pi * math.sqrt(l * c))
    x0 = 1.0 / (spec["c0_f"] * 2.0 * math.pi * f_r)
    # delta_p = U^2 / (R (1 + R0 sqrt(1/X0^2 + 1/R^2))^2)
    delta_p = spec["voltage_v"] ** 2 / (r * (1.0 + spec["shunt_ohm"] * math.sqrt(1 / x0**2 + 1 / r**2)) ** 2)
    return _mismatch("frequency_hz", float(rows[0][0]), f_r) or _mismatch("delta_p_w", float(rows[0][9]), delta_p)


def _check_power(spec, stdout):
    rows = _table(stdout, "name,n_squared,predicted_power_ratio")
    if [row[0] for row in rows] != [g[0] for g in GLASSES]:
        return f"library lists {[row[0] for row in rows]}"
    props = np.array([g[1:] for g in GLASSES])
    n_sq = amplification_number(props[:, 0], props[:, 1], props[:, 2]) ** 2
    ratio = n_sq[[g[0] for g in GLASSES].index(spec["reference"])] / n_sq
    printed = np.array([row[1:] for row in rows], dtype=float)
    reason = _mismatch("n_squared", printed[:, 0], n_sq) or _mismatch("ratio", printed[:, 1], ratio)
    if reason:
        return reason
    by_type = {}
    for (name, thickness, *_), value in zip(GLASSES, printed[:, 1]):
        by_type.setdefault(name.split("_")[0], []).append((thickness, value))
    for kind, points in by_type.items():
        ratios = [value for _, value in sorted(points)]
        if any(b <= a for a, b in zip(ratios, ratios[1:])):
            return f"{kind} power ratios do not rise with thickness: {ratios}"
    return None


_CHECKS = {
    "trial": _check_trial,
    "fit": _check_fit,
    "sweep": _check_sweep,
    "materials": _check_materials,
    "contour": _check_contour,
    "circuit": _check_circuit,
    "power": _check_power,
}


def check(spec: dict, exit_code, stdout: str):
    """Judge one operation's output; ``None`` when right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[spec["kind"]](spec, stdout)
    except (ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
