"""Ultrasonic friction-reduction models.

Three relationships between plate vibration and the relative friction
force mu' (friction with vibration on, divided by friction with
vibration off; 1 means no reduction, 0 means full reduction):

* a velocity model: mu' = 1 - exp(-Psi/Psi*), with
  Psi = U / (f * alpha * mu0 * (1 + nu)) -- the model this toolkit uses
  for predictions;
* a squeeze-film amplitude model: mu' = exp(-5 alpha^2 p0 / (4 u0^2 ps)),
  stated in the literature as a proportionality; the constant is fixed
  to 1 here so both models agree that mu' = 1 with vibration off;
* an empirical iso-friction contour relating amplitude to frequency over
  16-160 kHz, useful for comparing operating points across devices.

SI units throughout: frequency in Hz, amplitude in m, velocity in m/s,
pressure in Pa.  The one deliberate exception is the contour, which is
defined and returned in micrometers (its customary units).
"""

from __future__ import annotations

import math

from .errors import InvalidProperty, OutOfContourRange, record, require_positive, shown

ATMOSPHERIC_PRESSURE_PA = 101325.0

# frequency band over which the iso-friction contour is defined (Hz)
CONTOUR_FREQUENCY_RANGE_HZ = (16e3, 160e3)


@record
class VibrationState:
    """Plate vibration operating point.

    Attributes:
        frequency: vibration frequency f (Hz), > 0.
        amplitude: vibration amplitude alpha (m), >= 0.
    """

    frequency: float  # Hz
    amplitude: float  # m

    def __post_init__(self):
        require_positive(self, "vibration ", "frequency")
        require_positive(self, "vibration ", "amplitude", allow_zero=True)


@record
class FrictionParams:
    """Constants of the velocity friction model.

    Defaults are the calibration adopted for bare-finger exploration:
    U = 0.05 m/s, mu0 = 0.25, nu = 0.33, Psi* = 4.69.

    Attributes:
        explore_velocity: finger exploration velocity U (m/s).
        mu0: friction coefficient with vibration off.
        poisson: Poisson ratio nu of the fingertip, in (0, 0.5).
        psi_star: characteristic value of Psi.
    """

    explore_velocity: float = 0.05  # m/s
    mu0: float = 0.25
    poisson: float = 0.33
    psi_star: float = 4.69

    def __post_init__(self):
        require_positive(self, "", "explore_velocity", "mu0", "poisson", "psi_star")
        if not self.poisson < 0.5:
            raise InvalidProperty(f"poisson must be in (0, 0.5), got {self.poisson!r}")


@record
class SqueezeFilmParams:
    """Constants of the squeeze-film amplitude model.

    Attributes:
        u0: finger-plate gap at rest (m).
        ps: pressing pressure (Pa).
        p0: ambient pressure (Pa), defaults to standard atmosphere.
    """

    u0: float  # m
    ps: float  # Pa
    p0: float = ATMOSPHERIC_PRESSURE_PA  # Pa

    def __post_init__(self):
        require_positive(self, "", "u0", "ps", "p0")


DEFAULT_FRICTION_PARAMS = FrictionParams()


def psi(vib: VibrationState, params: FrictionParams = DEFAULT_FRICTION_PARAMS) -> float:
    """Dimensionless vibration number Psi = U / (f * alpha * mu0 * (1+nu)); ``math.inf`` at rest."""
    denominator = vib.frequency * vib.amplitude * params.mu0 * (1.0 + params.poisson)
    return params.explore_velocity / denominator if denominator else math.inf


def relative_friction_velocity(
    vib: VibrationState, params: FrictionParams = DEFAULT_FRICTION_PARAMS
) -> float:
    """Relative friction force mu' = 1 - exp(-Psi/Psi*) in [0, 1].

    At zero amplitude Psi is infinite and mu' is 1 (vibration off, no
    friction reduction).
    """
    return 1.0 - math.exp(-psi(vib, params) / params.psi_star)


def relative_friction_squeeze(amplitude: float, params: SqueezeFilmParams) -> float:
    """Relative friction force exp(-5 alpha^2 p0 / (4 u0^2 ps)).

    ``amplitude`` is the vibration amplitude in m, >= 0.
    """
    require_positive(locals(), "", "amplitude", allow_zero=True)
    exponent = 5.0 * amplitude**2 * params.p0 / (4.0 * params.u0**2 * params.ps)
    return math.exp(-exponent)


def contour_amplitude(frequency: float) -> float:
    """Amplitude on the iso-friction contour, in micrometers.

    Evaluates alpha_um = 1.755e4 * f_hz^(-0.797) - 0.937 for frequency
    in [16e3, 160e3] Hz, where the expression is positive.  The
    coefficients are known only to their printed digits, so the contour
    itself is uncertain by about +-0.04 um at 16 kHz and +-0.01 um at
    160 kHz.

    Raises:
        OutOfContourRange: frequency outside the fitted band.
    """
    lo, hi = CONTOUR_FREQUENCY_RANGE_HZ
    if not lo <= frequency <= hi:
        raise OutOfContourRange(
            f"contour is defined for {lo:.0f}..{hi:.0f} Hz, got {shown(frequency)}"
        )
    return 1.755e4 * frequency**-0.797 - 0.937
