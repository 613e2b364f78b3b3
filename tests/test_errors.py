import math

import pytest

from tpadlab.beam import BeamGeometry
from tpadlab.circuit import BvdParams, DriveConfig
from tpadlab.errors import InvalidProperty
from tpadlab.friction import FrictionParams, SqueezeFilmParams, VibrationState
from tpadlab.materials import ActuatorSpec, GlassSpec

# each value record with valid arguments, and the message prefix of its fields
RECORDS = [
    (GlassSpec, {"name": "g", "thickness": 4e-4, "density": 2483.0, "youngs_modulus": 71e9}, "glass "),
    (
        ActuatorSpec,
        {"thickness": 3e-4, "density": 7900.0, "youngs_modulus": 84e9, "static_capacitance": 9.88e-9},
        "actuator ",
    ),
    (
        BvdParams,
        {"inductance": 28.1e-3, "capacitance": 1e-9, "resistance": 2150.0, "static_capacitance": 9.88e-9},
        "",
    ),
    (DriveConfig, {"source_voltage": 40.0, "shunt_resistance": 100.0}, ""),
    (FrictionParams, {"explore_velocity": 0.05, "mu0": 0.25, "poisson": 0.33, "psi_star": 4.69}, ""),
    (SqueezeFilmParams, {"u0": 2e-6, "ps": 1e5, "p0": 101325.0}, ""),
    (VibrationState, {"frequency": 30e3, "amplitude": 3e-6}, "vibration "),
    (BeamGeometry, {"width": 0.06}, "beam "),
]
CASES = [
    (record, kwargs, prefix, field, bad)
    for record, kwargs, prefix in RECORDS
    for field in kwargs
    if field != "name"
    for bad in (math.inf, math.nan, "1.0")
]


@pytest.mark.parametrize(
    "record,kwargs,prefix,field,bad",
    CASES,
    ids=[f"{case[0].__name__}.{case[3]}={case[4]!r}" for case in CASES],
)
def test_value_records_reject_non_finite_fields(record, kwargs, prefix, field, bad):
    record(**kwargs)
    with pytest.raises(InvalidProperty, match=f"^{prefix}{field} must be .* and finite, got "):
        record(**{**kwargs, field: bad})


@pytest.mark.parametrize(
    "record,field",
    [(DriveConfig, "shunt_resistance"), (VibrationState, "amplitude")],
)
def test_zero_is_allowed_where_documented(record, field):
    kwargs = next(kwargs for r, kwargs, _ in RECORDS if r is record)
    assert getattr(record(**{**kwargs, field: 0.0}), field) == 0.0
    with pytest.raises(InvalidProperty, match=f"{field} must be >= 0 and finite, got -1e-09"):
        record(**{**kwargs, field: -1e-9})
