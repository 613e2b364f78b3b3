"""Material property records and the builtin glass library.

Everything is stored in strict SI units: thickness in m, density in
kg/m^3, Young's modulus in Pa, capacitance in F.  Vendor data sheets
usually quote mm, g/cm^3 and kN/mm^2; convert at the boundary (see
:mod:`tpadlab.units`) rather than here.

The builtin library covers the eight glass plates characterized on the
reference variable-friction device family, all driven by the same bonded
piezo actuator.  Library names follow the ``<glass>_<thickness mm>``
pattern, e.g. ``"SLG_0.4"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidProperty, MalformedMaterialFile, UnknownMaterial, is_finite_real, require_positive

# Admissible plate thickness for library entries (m).  Catches unit
# mix-ups (a "0.4" entered as meters instead of millimeters).
LIBRARY_THICKNESS_BAND_M = (1e-4, 5e-3)

_MATERIAL_FIELDS = ("name", "thickness_m", "density_kg_m3", "youngs_modulus_pa")


@dataclass(frozen=True)
class GlassSpec:
    """Mechanical description of one glass plate.

    Attributes:
        name: library identifier, e.g. ``"SLG_0.4"``.
        thickness: plate thickness (m).
        density: mass density (kg/m^3).
        youngs_modulus: Young's modulus (Pa).
    """

    name: str
    thickness: float  # m
    density: float  # kg/m^3
    youngs_modulus: float  # Pa

    def __post_init__(self):
        if not self.name:
            raise InvalidProperty("glass name must be non-empty")
        require_positive(self, "glass ", "thickness", "density", "youngs_modulus")


@dataclass(frozen=True)
class ActuatorSpec:
    """Mechanical and electrical description of the bonded piezo actuator.

    Attributes:
        thickness: actuator thickness (m).
        density: mass density (kg/m^3).
        youngs_modulus: Young's modulus (Pa).
        static_capacitance: clamped (static) capacitance C0 (F).
    """

    thickness: float  # m
    density: float  # kg/m^3
    youngs_modulus: float  # Pa
    static_capacitance: float  # F

    def __post_init__(self):
        require_positive(self, "actuator ", "thickness", "density", "youngs_modulus", "static_capacitance")


DEFAULT_ACTUATOR = ActuatorSpec(
    thickness=0.3e-3,
    density=7900.0,
    youngs_modulus=84e9,
    static_capacitance=9.88e-9,
)

# (name, thickness m, density kg/m^3, Young's modulus Pa)
_BUILTIN_GLASSES = (
    ("SLG_0.4", 0.4e-3, 2483.0, 71e9),
    ("SLG_0.56", 0.56e-3, 2483.0, 71e9),
    ("SLG_0.7", 0.7e-3, 2483.0, 71e9),
    ("D263_0.4", 0.4e-3, 2510.0, 72.9e9),
    ("D263_0.56", 0.56e-3, 2510.0, 72.9e9),
    ("Gorilla_0.56", 0.56e-3, 2420.0, 71.5e9),
    ("Gorilla_0.8", 0.8e-3, 2420.0, 71.5e9),
    ("BoroFloat_0.7", 0.7e-3, 2200.0, 64e9),
)


def default_actuator() -> ActuatorSpec:
    """Return the shared piezo actuator used by every builtin entry."""
    return DEFAULT_ACTUATOR


def _check_library_thickness(glass: GlassSpec) -> GlassSpec:
    lo, hi = LIBRARY_THICKNESS_BAND_M
    if not lo <= glass.thickness <= hi:
        raise InvalidProperty(
            f"library glass {glass.name!r} thickness {glass.thickness} m is outside "
            f"[{lo}, {hi}] m; check units"
        )
    return glass


def load_material_file(path) -> list[GlassSpec]:
    """Load extra glass records from a JSON file.

    The file must contain an array of objects with exactly the keys
    ``name``, ``thickness_m``, ``density_kg_m3`` and ``youngs_modulus_pa``.

    Raises:
        MalformedMaterialFile: not JSON, wrong shape, wrong keys, wrong
            value types, or duplicate names.
        InvalidProperty: structurally fine but a value is out of range.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedMaterialFile(f"cannot read material file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-to-string digit limit
        raise MalformedMaterialFile(f"material file {path} is not valid JSON: {exc}") from exc

    if not isinstance(payload, list):
        raise MalformedMaterialFile(f"material file {path} must contain a top-level array")

    glasses: list[GlassSpec] = []
    seen: set[str] = set()
    for index, record in enumerate(payload):
        if not isinstance(record, dict):
            raise MalformedMaterialFile(f"{path}: entry {index} is not an object")
        if set(record) != set(_MATERIAL_FIELDS):
            raise MalformedMaterialFile(
                f"{path}: entry {index} must have exactly the keys {list(_MATERIAL_FIELDS)}, "
                f"got {sorted(record)}"
            )
        name = record["name"]
        if not isinstance(name, str):
            raise MalformedMaterialFile(f"{path}: entry {index} name must be a string")
        values = []
        for key in _MATERIAL_FIELDS[1:]:
            value = record[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MalformedMaterialFile(f"{path}: entry {index} key {key!r} must be a number")
            values.append(float(value) if is_finite_real(value) else value)  # GlassSpec rejects the rest
        if name in seen:
            raise MalformedMaterialFile(f"{path}: duplicate material name {name!r}")
        seen.add(name)
        glasses.append(_check_library_thickness(GlassSpec(name, *values)))
    return glasses


def material_library(extra=()) -> list[GlassSpec]:
    """Return all known glasses, extra records first (they shadow builtins)."""
    return list(extra) + [GlassSpec(*row) for row in _BUILTIN_GLASSES]


def lookup(name: str, extra=()) -> GlassSpec:
    """Find a glass by name among extras and the builtin library.

    Raises:
        UnknownMaterial: no glass with that name exists.
    """
    for glass in material_library(extra):
        if glass.name == name:
            return glass
    known = ", ".join(g.name for g in material_library(extra))
    raise UnknownMaterial(f"unknown material {name!r} (known: {known})")
