import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpadlab.beam import BeamGeometry, amplification_number, sweep_amplification, wavenumbers
from tpadlab.bvdfit import FitOptions, ImpedanceSpectrum, generate_spectrum, initial_guess
from tpadlab.circuit import BvdParams, DriveConfig
from tpadlab.dataio import TimeTraces, amplitude_from_ldv, noise_floor, real_power_from_traces, summarize_trial
from tpadlab.errors import InvalidProperty, record
from tpadlab.friction import FrictionParams, SqueezeFilmParams, VibrationState, relative_friction_squeeze
from tpadlab.materials import ActuatorSpec, GlassSpec, default_actuator

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
# an int that no float holds: math.isfinite raises OverflowError on it
BEYOND_FLOAT = 10**400
# an int past Python's 4300-digit limit for int-to-string conversion: repr raises ValueError on it
BEYOND_DIGITS = 10**5000
LABELS = {BEYOND_FLOAT: "10**400", BEYOND_DIGITS: "10**5000", -BEYOND_DIGITS: "-10**5000"}


def _label(value):
    return LABELS[value] if isinstance(value, int) and value in LABELS else repr(value)


CASES = [
    (record, kwargs, prefix, field, bad)
    for record, kwargs, prefix in RECORDS
    for field in kwargs
    if field != "name"
    for bad in (math.inf, math.nan, "1.0", True, BEYOND_FLOAT, BEYOND_DIGITS)
]


@pytest.mark.parametrize(
    "record,kwargs,prefix,field,bad",
    CASES,
    ids=[f"{case[0].__name__}.{case[3]}={_label(case[4])}" for case in CASES],
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


FS = 300e3
_TONE = np.sin(2.0 * math.pi * 30e3 * np.arange(3000) / FS)
TRACES = TimeTraces(FS, 40.0 * _TONE, 10.0 * _TONE, 3e-6 * _TONE, "displacement")
PARAMS = BvdParams(28.1e-3, 1e-9, 2150.0, 9.88e-9)
SPECTRUM = generate_spectrum(PARAMS)
GLASS = GlassSpec("g", 4e-4, 2483.0, 71e9)
ACTUATOR = ActuatorSpec(3e-4, 7900.0, 84e9, 9.88e-9)

# the scalar argument of each library call, a valid value, and whether 0 is valid too
SCALAR_ARGUMENTS = {
    "amplitude_from_ldv": (lambda v: amplitude_from_ldv(TRACES, v), "drive_frequency", 30e3, False),
    "noise_floor": (lambda v: noise_floor(TRACES, v), "drive_frequency", 30e3, False),
    "real_power_from_traces-frequency": (
        lambda v: real_power_from_traces(TRACES, 100.0, v), "drive_frequency", 30e3, False
    ),
    "real_power_from_traces-shunt": (lambda v: real_power_from_traces(TRACES, v), "shunt_resistance", 100.0, False),
    "summarize_trial": (lambda v: summarize_trial(TRACES, v), "shunt_resistance", 100.0, False),
    "TimeTraces": (lambda v: TimeTraces(v, TRACES.v_piezo, TRACES.v_shunt), "sample_rate", FS, False),
    "initial_guess": (lambda v: initial_guess(SPECTRUM, v), "c0", 9.88e-9, False),
    "wavenumbers": (lambda v: wavenumbers(GLASS, ACTUATOR, BeamGeometry(), v), "angular_frequency", 1.9e5, False),
    "relative_friction_squeeze": (
        lambda v: relative_friction_squeeze(v, SqueezeFilmParams(2e-6, 1e5)), "amplitude", 3e-6, True
    ),
    "generate_spectrum-points": (lambda v: generate_spectrum(PARAMS, n_points=v), "n_points", 201, False),
    "generate_spectrum-seed": (lambda v: generate_spectrum(PARAMS, seed=v), "seed", 1, True),
    "FitOptions": (lambda v: FitOptions(max_iterations=v), "fit max_iterations", 500, False),
    "sweep_amplification": (lambda v: sweep_amplification(GLASS, ACTUATOR, v, [1e-3]), "axis", "thickness", False),
}
# more values outside an argument's range: the drive band is 15-60 kHz, and counts are integers
OUTSIDE_RANGE = {
    "drive_frequency": (1e308, 1e3, 7e4, "30e3", BEYOND_FLOAT, BEYOND_DIGITS),
    "shunt_resistance": (BEYOND_FLOAT,),
    "sample_rate": (BEYOND_FLOAT, BEYOND_DIGITS, "300e3"),
    "c0": (BEYOND_FLOAT,),
    "angular_frequency": (BEYOND_FLOAT,),
    "amplitude": (BEYOND_FLOAT,),
    "n_points": (8.5,),
    "seed": (1.5, -BEYOND_DIGITS),
    "fit max_iterations": (2.5, True, BEYOND_FLOAT, BEYOND_DIGITS),
    "axis": ("stiffness",),
}
SCALAR_CASES = [
    (name, bad)
    for name, (_, argument, _, zero_ok) in SCALAR_ARGUMENTS.items()
    for bad in (math.inf, math.nan, -1.0, *(() if zero_ok else (0.0,)), *OUTSIDE_RANGE.get(argument, ()))
]


@pytest.mark.parametrize("name,bad", SCALAR_CASES, ids=[f"{name}={_label(bad)}" for name, bad in SCALAR_CASES])
def test_scalar_arguments_outside_their_range_are_invalid(name, bad):
    call, argument, good, _ = SCALAR_ARGUMENTS[name]
    call(good)
    with pytest.raises(InvalidProperty, match=f"^{argument} must be "):
        call(bad)


def test_a_point_count_too_long_to_print_is_invalid():
    with pytest.raises(InvalidProperty, match="^spectrum may have at most .* points, got an integer too long to print$"):
        generate_spectrum(PARAMS, n_points=BEYOND_DIGITS)


# --- errors.record keeps what dataclass(frozen=True) gave each record ----------


def _pair_class(decorate):
    """A two-field record class named Pair, the second field defaulted, made by ``decorate``."""
    namespace = {"__annotations__": {"left": "object", "right": "object"}, "right": 0.5, "__qualname__": "Pair"}
    return decorate(type("Pair", (), namespace))


PAIR = _pair_class(record)
TWIN = _pair_class(dataclasses.dataclass(frozen=True))
HASHABLE = st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=5), st.none(), st.booleans())


@given(a=st.tuples(HASHABLE, HASHABLE), b=st.tuples(HASHABLE, HASHABLE))
def test_record_repr_eq_and_hash_match_a_frozen_dataclass(a, b):
    assert repr(PAIR(*a)) == repr(TWIN(*a))
    assert (PAIR(*a) == PAIR(*b)) == (TWIN(*a) == TWIN(*b))
    assert (PAIR(*a) != PAIR(*b)) == (TWIN(*a) != TWIN(*b))
    assert hash(PAIR(*a)) == hash(TWIN(*a))
    assert PAIR(a[0]) == PAIR(left=a[0], right=0.5)
    assert PAIR(*a) != TWIN(*a)  # a record equals only records of its own class


@pytest.mark.parametrize(
    "args,kwargs",
    [((1, 2, 3), {}), ((1,), {"middle": 2}), ((1,), {"left": 2}), ((), {"right": 2}), ((), {})],
    ids=["too-many-positional", "unknown-keyword", "given-both-ways", "missing-field", "no-arguments"],
)
def test_record_rejects_bad_calls_as_a_dataclass_does(args, kwargs):
    with pytest.raises(TypeError):
        TWIN(*args, **kwargs)
    with pytest.raises(TypeError, match=r"^Pair\(\) takes \('left', 'right'\)"):
        PAIR(*args, **kwargs)


@pytest.mark.parametrize("record_class,kwargs,_", RECORDS, ids=[r.__name__ for r, _, _ in RECORDS])
def test_records_are_frozen(record_class, kwargs, _):
    value = record_class(**kwargs)
    field = next(iter(kwargs))
    with pytest.raises(AttributeError, match=f"frozen: cannot set or delete '{field}'"):
        setattr(value, field, kwargs[field])
    with pytest.raises(AttributeError, match=f"frozen: cannot set or delete '{field}'"):
        delattr(value, field)
    assert value == record_class(**kwargs)


def test_replace_checks_the_copy_as_a_new_record():
    actuator = default_actuator()
    rest = (actuator.density, actuator.youngs_modulus, actuator.static_capacitance)
    assert actuator.replace(thickness=4e-4) == ActuatorSpec(4e-4, *rest)
    assert actuator.replace() == actuator
    with pytest.raises(InvalidProperty, match="^actuator thickness must be positive and finite, got -1.0$"):
        actuator.replace(thickness=-1.0)
    with pytest.raises(TypeError):
        actuator.replace(width=1.0)


def test_array_records_compare_by_identity():
    twin_traces = TimeTraces(FS, TRACES.v_piezo, TRACES.v_shunt, TRACES.ldv, TRACES.ldv_kind)
    assert TRACES == TRACES and TRACES != twin_traces
    twin_spectrum = ImpedanceSpectrum(SPECTRUM.frequencies, SPECTRUM.impedances)
    assert SPECTRUM == SPECTRUM and SPECTRUM != twin_spectrum
    assert len({TRACES, twin_traces, SPECTRUM, twin_spectrum}) == 4


@pytest.mark.parametrize(
    "value",
    [GLASS, ACTUATOR, PARAMS, DriveConfig(40.0), FitOptions(), FrictionParams(), amplification_number(GLASS, ACTUATOR)],
    ids=lambda value: type(value).__name__,
)
def test_pickle_round_trip_gives_an_equal_record(value):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and copy is not value
