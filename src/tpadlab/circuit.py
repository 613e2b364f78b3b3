"""Equivalent-circuit model of the fingertip-plate system.

The device is modeled as a motional branch (series L-C-R standing in for
effective mass, stiffness and damping of plate plus finger) in parallel
with the actuator's static capacitance C0, driven by a constant-voltage
source through a small shunt resistor R0.

Sign conventions follow the closed forms used throughout:
X0 = -1/(C0*w) and X1 = L*w - 1/(C*w) are the static-branch and motional
reactances.  The scalar resonance formulas (motional voltage, real
power) use |X0|; the sign matters only inside the complex impedance.
Voltages are RMS so that delta_p = u_g^2 / R without a factor of 1/2.

All functions accept numpy arrays for ``frequency`` and broadcast.
Only :func:`impedance` and :func:`transfer_ug_over_i` import numpy, so
the scalar routes run without it.
"""

from __future__ import annotations

import math

from .errors import record, require_positive


@record
class BvdParams:
    """Lumped equivalent-circuit parameters.

    Attributes:
        inductance: motional inductance L (H).
        capacitance: motional capacitance C (F).
        resistance: motional resistance R (Ohm).
        static_capacitance: static capacitance C0 (F).
    """

    inductance: float  # H
    capacitance: float  # F
    resistance: float  # Ohm
    static_capacitance: float  # F

    def __post_init__(self):
        require_positive(self, "", "inductance", "capacitance", "resistance", "static_capacitance")


@record
class DriveConfig:
    """Drive-side configuration.

    Attributes:
        source_voltage: source voltage U_i (V RMS).
        shunt_resistance: series shunt R0 (Ohm); 0 removes the divider.
    """

    source_voltage: float  # V RMS
    shunt_resistance: float = 100.0  # Ohm

    def __post_init__(self):
        require_positive(self, "", "source_voltage")
        require_positive(self, "", "shunt_resistance", allow_zero=True)


@record
class CircuitEvaluation:
    """Resonance operating point of the driven circuit.

    Attributes:
        frequency: evaluation frequency (Hz), the resonance.
        x0: static-branch reactance magnitude 1/(C0*w) (Ohm).
        x1: motional reactance L*w - 1/(C*w) (Ohm); 0 at resonance.
        z: complex device impedance (Ohm).
        u_g: motional-branch voltage from the scalar divider (V RMS).
        u_g_exact: motional-branch voltage from the complex divider
            U_i*|Z/(Z+R0)| (V RMS); diagnostic for the scalar-form error.
        i_g: motional current u_g / R (A RMS).
        delta_p: real power dissipated in the motional branch (W).
    """

    frequency: float  # Hz
    x0: float  # Ohm
    x1: float  # Ohm
    z: complex  # Ohm
    u_g: float  # V RMS
    u_g_exact: float  # V RMS
    i_g: float  # A RMS
    delta_p: float  # W


def resonant_frequency(p: BvdParams) -> float:
    """Series resonance f_r = 1/(2*pi*sqrt(L*C)) in Hz."""
    return 1.0 / (2.0 * math.pi * math.sqrt(p.inductance * p.capacitance))


def static_reactance_magnitude(static_capacitance: float, frequency) -> float:
    """|X0| = 1/(C0 * 2*pi*f) in Ohm."""
    return 1.0 / (static_capacitance * 2.0 * math.pi * frequency)


def motional_reactance(p: BvdParams, frequency) -> float:
    """X1 = L*w - 1/(C*w) in Ohm; zero exactly at resonance."""
    w = 2.0 * math.pi * frequency
    return p.inductance * w - 1.0 / (p.capacitance * w)


def impedance(p: BvdParams, frequency) -> complex:
    """Complex device impedance at ``frequency`` (Hz).

    Closed form of the static capacitor in parallel with the series
    L-C-R branch:

        Z = [X0^2 R + j X0 (R^2 + X0 X1 + X1^2)] / [R^2 + (X0 + X1)^2]

    with signed X0 = -1/(C0 w).  A frequency whose terms leave float
    range gives ``inf`` or ``nan`` without a numpy warning.  Each part
    is written in place as its numerator times 1/den, the products of
    numpy's complex-by-real division, so finite values match it bit
    for bit.  A scalar gives a ``complex``; an array keeps its shape.
    """
    import numpy as np

    f = np.array(frequency, dtype=float, ndmin=1)  # out= refuses a 0-d result
    with np.errstate(all="ignore"):
        w = 2.0 * np.pi * f
        x0 = -1.0 / (p.static_capacitance * w)
        x1 = p.inductance * w - 1.0 / (p.capacitance * w)
        r = p.resistance
        inv_den = 1.0 / (r * r + (x0 + x1) ** 2)
        z = np.empty(f.shape, complex)
        np.multiply(x0 * x0 * r, inv_den, out=z.real)
        np.multiply(x0 * (r * r + x0 * x1 + x1 * x1), inv_den, out=z.imag)
    z = z.reshape(np.shape(frequency))
    return complex(z) if np.isscalar(frequency) else z


def impedance_at_resonance(p: BvdParams) -> complex:
    """Device impedance at resonance, where X1 = 0:

    Z = X0^2 R / (R^2 + X0^2) + j X0 R^2 / (R^2 + X0^2), signed X0.
    """
    w = 2.0 * math.pi * resonant_frequency(p)
    x0 = -1.0 / (p.static_capacitance * w)
    r = p.resistance
    den = r * r + x0 * x0
    return complex(x0 * x0 * r / den, x0 * r * r / den)


def motional_voltage(p: BvdParams, d: DriveConfig) -> float:
    """Motional-branch voltage at resonance, scalar divider form (V RMS).

    U_g = U_i * |Z| / (|Z| + R0) with |Z| = X0 R / sqrt(R^2 + X0^2),
    X0 taken as a magnitude.  Ignores the phase of Z; see
    :func:`evaluate` for the exact complex-divider diagnostic.
    """
    w = 2.0 * math.pi * resonant_frequency(p)
    x0 = 1.0 / (p.static_capacitance * w)
    r = p.resistance
    z_mag = x0 * r / math.sqrt(r * r + x0 * x0)
    return d.source_voltage * z_mag / (z_mag + d.shunt_resistance)


def real_power(p: BvdParams, d: DriveConfig) -> float:
    """Real power in the motional branch at resonance (W).

    delta_p = U_i^2 / (R * (1 + R0 * sqrt(1/X0^2 + 1/R^2))^2),
    equal to U_g^2 / R with the scalar-divider U_g.
    """
    w = 2.0 * math.pi * resonant_frequency(p)
    x0 = 1.0 / (p.static_capacitance * w)
    r = p.resistance
    scale = 1.0 + d.shunt_resistance * math.sqrt(1.0 / (x0 * x0) + 1.0 / (r * r))
    return d.source_voltage**2 / (r * scale * scale)


def transfer_ug_over_i(p: BvdParams, frequency) -> complex:
    """Transfer function from drive current to motional voltage, in Ohm.

    Evaluates (L C s^2 + R C s + 1) / (C0 L C s^3 + C0 R C s^2 + (C0+C) s)
    at s = j*2*pi*f.  Identical to :func:`impedance` for this network;
    kept as an independent route for cross-checking.
    """
    import numpy as np

    s = 1j * 2.0 * np.pi * np.asarray(frequency, dtype=float)
    l, c, r, c0 = p.inductance, p.capacitance, p.resistance, p.static_capacitance
    num = l * c * s**2 + r * c * s + 1.0
    den = c0 * l * c * s**3 + c0 * r * c * s**2 + (c0 + c) * s
    h = num / den
    return complex(h) if np.isscalar(frequency) else h


def evaluate(p: BvdParams, d: DriveConfig) -> CircuitEvaluation:
    """Evaluate the resonance operating point for a drive configuration."""
    f_r = resonant_frequency(p)
    w = 2.0 * math.pi * f_r
    x0 = 1.0 / (p.static_capacitance * w)
    z = impedance_at_resonance(p)
    u_g = motional_voltage(p, d)
    u_g_exact = d.source_voltage * abs(z / (z + d.shunt_resistance))
    return CircuitEvaluation(
        frequency=f_r,
        x0=x0,
        x1=0.0,
        z=z,
        u_g=u_g,
        u_g_exact=u_g_exact,
        i_g=u_g / p.resistance,
        delta_p=real_power(p, d),
    )
