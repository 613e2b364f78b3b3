"""Sandwich-beam amplification model for plate-on-actuator designs.

The bonded actuator-plus-plate region and the bare plate carry bending
standing waves with different flexural stiffnesses.  Matching shear
forces at the junction gives the amplification number n: the ratio of
plate deflection amplitude to actuator deflection amplitude.  Under a
constant-voltage drive, the real power consumption of two designs scales
as the inverse ratio of their n^2 values, so n^2 is the design-space
figure of merit.

Two algebraically equivalent routes to n are kept:

* :func:`amplification_number` -- the simplified closed form depending
  only on material properties (width- and frequency-independent);
* :func:`amplification_from_wavenumbers` -- the explicit route through
  flexural stiffnesses and wavenumbers at a chosen width and angular
  frequency.

Their agreement is a structural self-check of the shear-force balance
and is asserted by the test suite.

Units are strict SI; stiffnesses are reported per the conventions noted
on each function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyGrid, InvalidProperty, require_positive
from .materials import ActuatorSpec, GlassSpec

# Reference plate footprint of the builtin library devices: 60 x 130 mm,
# width measured across the short (y) axis.
PLATE_WIDTH_M = 0.06

# Angular frequency used only to populate wavenumber diagnostics; n
# itself is frequency-independent.  Mid-band of the builtin devices.
REFERENCE_ANGULAR_FREQUENCY = 2.0 * math.pi * 30e3

SWEEP_AXES = ("thickness", "density", "youngs_modulus")


@dataclass(frozen=True)
class BeamGeometry:
    """Beam cross-section geometry.

    Attributes:
        width: beam width l_w in the y axis (m).
    """

    width: float = PLATE_WIDTH_M  # m

    def __post_init__(self):
        require_positive(self, "beam ", "width")


@dataclass(frozen=True)
class AmplificationResult:
    """Amplification number with its per-width diagnostics.

    Attributes:
        d1_prime: sandwich flexural stiffness per unit width (Pa*m^3).
        d2_per_width: bare-plate flexural stiffness per unit width (Pa*m^3).
        beta_a: sandwich-region wavenumber (1/m) at the reference frequency.
        beta_p: bare-plate wavenumber (1/m) at the reference frequency.
        n: amplification number (plate amplitude / actuator amplitude).
        reference_angular_frequency: rad/s at which the betas were taken.
    """

    d1_prime: float  # Pa*m^3
    d2_per_width: float  # Pa*m^3
    beta_a: float  # 1/m
    beta_p: float  # 1/m
    n: float
    reference_angular_frequency: float  # rad/s

    @property
    def n_squared(self) -> float:
        return self.n * self.n


def flexural_stiffness_sandwich(
    glass: GlassSpec, actuator: ActuatorSpec, geom: BeamGeometry
) -> float:
    """Flexural stiffness D1 of the bonded actuator+plate region (Pa*m^4).

    D1 = E_p l_w h_p^3/3 + E_a l_w (h_a^3/3 + h_p h_a^2 + h_p^2 h_a),
    the bending integral taken about the bond plane.
    """
    return _sandwich_stiffness(glass.thickness, glass.youngs_modulus, actuator, geom.width)


def _sandwich_stiffness(h_p, e_p, actuator: ActuatorSpec, width: float):
    h_a = actuator.thickness
    return e_p * width * h_p**3 / 3.0 + actuator.youngs_modulus * width * (
        h_a**3 / 3.0 + h_p * h_a**2 + h_p**2 * h_a
    )


def flexural_stiffness_plate(glass: GlassSpec, geom: BeamGeometry) -> float:
    """Flexural stiffness D2 = E_p l_w h_p^3 / 12 of the bare plate (Pa*m^4)."""
    return glass.youngs_modulus * geom.width * glass.thickness**3 / 12.0


def wavenumbers(
    glass: GlassSpec,
    actuator: ActuatorSpec,
    geom: BeamGeometry,
    angular_frequency: float,
) -> tuple[float, float]:
    """Bending wavenumbers (beta_a, beta_p) at ``angular_frequency`` (rad/s).

    beta_a = (mu1 w^2 / D1)^(1/4) with mu1 = l_w (rho_a h_a + rho_p h_p)
    for the sandwich region, and beta_p = (12 w^2 rho_p / (E_p h_p^2))^(1/4)
    for the bare plate.  Both scale as sqrt(w), so their ratio is
    frequency-independent.
    """
    if not angular_frequency > 0:
        raise InvalidProperty(f"angular_frequency must be positive, got {angular_frequency!r}")
    d1 = flexural_stiffness_sandwich(glass, actuator, geom)
    mu1 = geom.width * (actuator.density * actuator.thickness + glass.density * glass.thickness)
    beta_a = (mu1 * angular_frequency**2 / d1) ** 0.25
    beta_p = (
        12.0 * angular_frequency**2 * glass.density / (glass.youngs_modulus * glass.thickness**2)
    ) ** 0.25
    return beta_a, beta_p


def amplification_from_wavenumbers(
    glass: GlassSpec,
    actuator: ActuatorSpec,
    geom: BeamGeometry,
    angular_frequency: float,
) -> float:
    """Amplification number via the explicit shear-force balance.

    n = 12 D1 / (E_p h_p^3 l_w) * beta_a^3 / beta_p^3.  Width and
    frequency cancel algebraically; this route keeps them explicit as a
    cross-check of :func:`amplification_number`.
    """
    d1 = flexural_stiffness_sandwich(glass, actuator, geom)
    beta_a, beta_p = wavenumbers(glass, actuator, geom, angular_frequency)
    return 12.0 * d1 / (glass.youngs_modulus * glass.thickness**3 * geom.width) * (
        beta_a / beta_p
    ) ** 3


def amplification_number(glass: GlassSpec, actuator: ActuatorSpec) -> AmplificationResult:
    """Amplification number in its simplified material-only form.

    n = 12 * [(1/12) (D1'/E_p)^(1/3) (rho_a h_a / (h_p^2 rho_p) + 1/h_p)]^(3/4)

    with D1' the sandwich stiffness per unit width.  Wavenumber
    diagnostics are populated at :data:`REFERENCE_ANGULAR_FREQUENCY`
    with unit width; n itself depends on neither.
    """
    unit = BeamGeometry(width=1.0)
    beta_a, beta_p = wavenumbers(glass, actuator, unit, REFERENCE_ANGULAR_FREQUENCY)
    return AmplificationResult(
        d1_prime=flexural_stiffness_sandwich(glass, actuator, unit),
        d2_per_width=flexural_stiffness_plate(glass, unit),
        beta_a=beta_a,
        beta_p=beta_p,
        n=_closed_form_n(actuator, glass.thickness, glass.density, glass.youngs_modulus),
        reference_angular_frequency=REFERENCE_ANGULAR_FREQUENCY,
    )


def _closed_form_n(actuator: ActuatorSpec, thickness, density, youngs_modulus):
    """n of :func:`amplification_number`, elementwise over floats or arrays."""
    d1_prime = _sandwich_stiffness(thickness, youngs_modulus, actuator, 1.0)
    inner = (
        (d1_prime / youngs_modulus) ** (1.0 / 3.0)
        * (actuator.density * actuator.thickness / (thickness**2 * density) + 1.0 / thickness)
        / 12.0
    )
    return 12.0 * inner**0.75


def power_ratio(reference: GlassSpec, other: GlassSpec, actuator: ActuatorSpec) -> float:
    """Predicted power of ``other`` relative to ``reference``.

    delta_p_other / delta_p_reference = n_reference^2 / n_other^2 under a
    constant-voltage drive.  Model-conditional: assumes the reflected
    plate impedance dominates the actuator impedance and that the plate
    mechanical impedances are similar across designs.
    """
    n_ref = amplification_number(reference, actuator).n
    n_other = amplification_number(other, actuator).n
    return (n_ref / n_other) ** 2


def sweep_amplification(
    glass: GlassSpec,
    actuator: ActuatorSpec,
    axis: str,
    grid,
) -> list[tuple[float, float, float]]:
    """Evaluate n over a one-axis sweep of the glass properties.

    ``axis`` is one of ``thickness``, ``density``, ``youngs_modulus``;
    ``grid`` is an iterable of positive values (SI) for that field, the
    remaining fields held at ``glass``'s values.  Returns
    ``(axis_value, n, n_squared)`` rows in grid order.

    Raises:
        EmptyGrid: the grid has no points.
        InvalidProperty: a grid value that :class:`GlassSpec` rejects (with
            its message), or one that gives a non-finite n^2.
    """
    import numpy as np

    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = np.fromiter(grid, dtype=float)
    if not values.size:
        raise EmptyGrid(f"sweep over {axis!r} got an empty grid")
    fields = {"thickness": glass.thickness, "density": glass.density, "youngs_modulus": glass.youngs_modulus}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n = _closed_form_n(actuator, **{**fields, axis: values})
        n_squared = n * n
    usable = np.isfinite(values) & (values > 0) & np.isfinite(n_squared)
    if not usable.all():
        value = float(values[~usable][0])
        GlassSpec(glass.name, **{**fields, axis: value})  # raises for a value a glass may not have
        raise InvalidProperty(f"glass {axis} {value!r} is outside the model's range: n^2 is not finite")
    return list(zip(values.tolist(), n.tolist(), n_squared.tolist()))
