import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpadlab import beam
from tpadlab.beam import BeamGeometry
from tpadlab.errors import EmptyGrid, InvalidProperty
from tpadlab.materials import (
    ActuatorSpec,
    GlassSpec,
    default_actuator,
    lookup,
    material_library,
)

ACTUATOR = default_actuator()
SLG_04 = lookup("SLG_0.4")
GORILLA_08 = lookup("Gorilla_0.8")

UNIT = BeamGeometry(width=1.0)
OMEGA = 2.0 * math.pi * 30e3

# Frozen references for the 0.4 mm soda-lime plate with the stock
# actuator, unit width, 30 kHz.
D1_SLG_04 = 9.326666666666666
D2_PER_WIDTH_SLG_04 = 0.3786666666666667
BETA_A_SLG_04 = 336.4396103069548
BETA_P_SLG_04 = 552.5167774090465

# (n, n^2) per builtin plate.
AMPLIFICATION_TABLE = {
    "SLG_0.4": (5.561018403134684, 30.924925680002627),
    "SLG_0.56": (4.244441636302982, 18.015284803982336),
    "SLG_0.7": (3.624092948591583, 13.134049700031236),
    "D263_0.4": (5.498945409509698, 30.23840061676778),
    "D263_0.56": (4.2018792266608695, 17.655789035444148),
    "Gorilla_0.56": (4.2908727269933475, 18.411588759255327),
    "Gorilla_0.8": (3.3551487136562703, 11.257022890749326),
    "BoroFloat_0.7": (3.8945601019068494, 15.16759838736469),
}

N_SQUARED_ORDER = [
    "Gorilla_0.8",
    "SLG_0.7",
    "BoroFloat_0.7",
    "D263_0.56",
    "SLG_0.56",
    "Gorilla_0.56",
    "D263_0.4",
    "SLG_0.4",
]


def test_sandwich_stiffness_reference_value():
    d1 = beam.flexural_stiffness_sandwich(SLG_04, ACTUATOR, UNIT)
    assert d1 == pytest.approx(D1_SLG_04, rel=1e-12)


def test_sandwich_stiffness_vanishing_actuator_limit():
    thin = ActuatorSpec(
        thickness=1e-15,
        density=ACTUATOR.density,
        youngs_modulus=ACTUATOR.youngs_modulus,
        static_capacitance=ACTUATOR.static_capacitance,
    )
    d1 = beam.flexural_stiffness_sandwich(SLG_04, thin, UNIT)
    bare = SLG_04.youngs_modulus * SLG_04.thickness**3 / 3.0
    assert d1 == pytest.approx(bare, rel=1e-9)


def test_sandwich_stiffness_linear_in_width():
    # width only multiplies, so power-of-two widths are float-exact
    narrow = beam.flexural_stiffness_sandwich(SLG_04, ACTUATOR, BeamGeometry(width=0.0625))
    assert narrow == 0.0625 * beam.flexural_stiffness_sandwich(SLG_04, ACTUATOR, UNIT)


def test_plate_stiffness_reference_value():
    d2 = beam.flexural_stiffness_plate(SLG_04, UNIT)
    assert d2 == pytest.approx(D2_PER_WIDTH_SLG_04, rel=1e-12)
    assert d2 == pytest.approx(SLG_04.youngs_modulus * SLG_04.thickness**3 / 12.0, rel=1e-15)


def test_plate_stiffness_cubic_in_thickness():
    doubled = GlassSpec(
        name="SLG_0.8x",
        thickness=2.0 * SLG_04.thickness,
        density=SLG_04.density,
        youngs_modulus=SLG_04.youngs_modulus,
    )
    assert beam.flexural_stiffness_plate(doubled, UNIT) == 8.0 * beam.flexural_stiffness_plate(
        SLG_04, UNIT
    )


def test_wavenumber_reference_values():
    beta_a, beta_p = beam.wavenumbers(SLG_04, ACTUATOR, UNIT, OMEGA)
    assert beta_a == pytest.approx(BETA_A_SLG_04, rel=1e-12)
    assert beta_p == pytest.approx(BETA_P_SLG_04, rel=1e-12)


def test_wavenumbers_scale_with_sqrt_frequency():
    # (omega^2)^(1/4) = sqrt(omega): a 4x frequency doubles both betas
    base = beam.wavenumbers(SLG_04, ACTUATOR, UNIT, OMEGA)
    quad = beam.wavenumbers(SLG_04, ACTUATOR, UNIT, 4.0 * OMEGA)
    assert quad[0] == pytest.approx(2.0 * base[0], rel=1e-12)
    assert quad[1] == pytest.approx(2.0 * base[1], rel=1e-12)


def test_wavenumber_ratio_is_frequency_independent():
    for omega in (2.0 * math.pi * 10e3, OMEGA, 2.0 * math.pi * 100e3):
        beta_a, beta_p = beam.wavenumbers(SLG_04, ACTUATOR, UNIT, omega)
        assert beta_a / beta_p == pytest.approx(BETA_A_SLG_04 / BETA_P_SLG_04, rel=1e-12)


def test_wavenumbers_independent_of_width():
    narrow = beam.wavenumbers(SLG_04, ACTUATOR, BeamGeometry(width=0.01), OMEGA)
    wide = beam.wavenumbers(SLG_04, ACTUATOR, UNIT, OMEGA)
    assert narrow[0] == pytest.approx(wide[0], rel=1e-12)
    assert narrow[1] == pytest.approx(wide[1], rel=1e-12)


def test_wavenumbers_reject_nonpositive_frequency():
    with pytest.raises(InvalidProperty):
        beam.wavenumbers(SLG_04, ACTUATOR, UNIT, 0.0)


@pytest.mark.parametrize("name,expected", sorted(AMPLIFICATION_TABLE.items()))
def test_amplification_numbers(name, expected):
    result = beam.amplification_number(lookup(name), ACTUATOR)
    assert result.n == pytest.approx(expected[0], rel=1e-12)
    assert result.n_squared == pytest.approx(expected[1], rel=1e-12)


def test_amplification_result_diagnostics():
    result = beam.amplification_number(SLG_04, ACTUATOR)
    assert result.d1_prime == pytest.approx(D1_SLG_04, rel=1e-12)
    assert result.d2_per_width == pytest.approx(D2_PER_WIDTH_SLG_04, rel=1e-12)
    assert result.beta_a == pytest.approx(BETA_A_SLG_04, rel=1e-12)
    assert result.beta_p == pytest.approx(BETA_P_SLG_04, rel=1e-12)
    assert result.reference_angular_frequency == pytest.approx(OMEGA, rel=1e-15)


def test_closed_form_matches_wavenumber_route():
    # width and frequency must cancel out of the explicit route
    for omega in (2.0 * math.pi * 10e3, OMEGA, 2.0 * math.pi * 100e3):
        for width in (0.01, 0.06, 1.0):
            geom = BeamGeometry(width=width)
            for glass in material_library():
                explicit = beam.amplification_from_wavenumbers(glass, ACTUATOR, geom, omega)
                closed = beam.amplification_number(glass, ACTUATOR).n
                assert abs(explicit / closed - 1.0) < 1e-9


def test_power_ratio_identity_and_reference():
    assert beam.power_ratio(SLG_04, SLG_04, ACTUATOR) == pytest.approx(1.0, rel=1e-15)
    ratio = beam.power_ratio(SLG_04, GORILLA_08, ACTUATOR)
    assert ratio == pytest.approx(2.747167344344283, rel=1e-12)
    assert ratio > 2.0


def test_power_ratio_antisymmetry():
    forward = beam.power_ratio(SLG_04, GORILLA_08, ACTUATOR)
    backward = beam.power_ratio(GORILLA_08, SLG_04, ACTUATOR)
    assert forward * backward == pytest.approx(1.0, rel=1e-12)


def test_n_squared_ranking():
    ranked = sorted(
        material_library(), key=lambda g: beam.amplification_number(g, ACTUATOR).n_squared
    )
    assert [g.name for g in ranked] == N_SQUARED_ORDER


def test_sweep_thickness_monotone():
    rows = beam.sweep_amplification(SLG_04, ACTUATOR, "thickness", [0.4e-3, 0.56e-3, 0.7e-3, 0.8e-3])
    n_sq = [row[2] for row in rows]
    assert all(a > b for a, b in zip(n_sq, n_sq[1:]))


def test_sweep_density_monotone():
    rows = beam.sweep_amplification(SLG_04, ACTUATOR, "density", [2200.0, 2420.0, 2483.0, 2510.0])
    n_sq = [row[2] for row in rows]
    assert all(a > b for a, b in zip(n_sq, n_sq[1:]))


def test_sweep_matches_single_evaluation():
    rows = beam.sweep_amplification(SLG_04, ACTUATOR, "youngs_modulus", [71e9])
    assert len(rows) == 1
    value, n, n_sq = rows[0]
    assert value == 71e9
    assert n == beam.amplification_number(SLG_04, ACTUATOR).n
    assert n_sq == pytest.approx(n * n, rel=1e-15)


def test_sweep_rejects_empty_grid():
    with pytest.raises(EmptyGrid):
        beam.sweep_amplification(SLG_04, ACTUATOR, "thickness", [])


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        beam.sweep_amplification(SLG_04, ACTUATOR, "stiffness", [0.4e-3])


def test_sweep_rejects_nonpositive_value():
    with pytest.raises(InvalidProperty):
        beam.sweep_amplification(SLG_04, ACTUATOR, "density", [2483.0, -1.0])


# Positive values over sixty decades: n and n^2 stay finite on every axis.
GRID_VALUES = st.floats(min_value=1e-30, max_value=1e30)
REJECTED_VALUES = st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan]))


@given(axis=st.sampled_from(beam.SWEEP_AXES), grid=st.lists(GRID_VALUES, min_size=1, max_size=20))
def test_sweep_matches_amplification_number_per_point(axis, grid):
    # array pow may round the last bit otherwise than Python's float pow
    for glass in material_library():
        rows = beam.sweep_amplification(glass, ACTUATOR, axis, grid)
        assert [row[0] for row in rows] == grid
        for value, n, n_squared in rows:
            expected = beam.amplification_number(replace(glass, **{axis: value}), ACTUATOR).n
            assert abs(n / expected - 1.0) <= 2e-15
            assert n_squared == n * n


@given(
    axis=st.sampled_from(beam.SWEEP_AXES),
    glass=st.sampled_from(material_library()),
    before=st.lists(GRID_VALUES, max_size=5),
    bad=REJECTED_VALUES,
    after=st.lists(st.one_of(GRID_VALUES, REJECTED_VALUES), max_size=5),
)
def test_sweep_rejects_what_glass_spec_rejects(axis, glass, before, bad, after):
    with pytest.raises(InvalidProperty) as expected:
        replace(glass, **{axis: bad})
    with pytest.raises(InvalidProperty) as raised:
        beam.sweep_amplification(glass, ACTUATOR, axis, before + [bad] + after)
    assert str(raised.value) == str(expected.value)


def test_sweep_rejects_values_outside_the_model():
    with pytest.raises(InvalidProperty, match="glass thickness 1e-200 is outside the model's range"):
        beam.sweep_amplification(SLG_04, ACTUATOR, "thickness", [0.4e-3, 1e-200])


def test_monotone_over_design_ranges():
    # thicker, denser, stiffer plates all lower n^2 (less drive power saved)
    for axis, grid in (
        ("thickness", np.linspace(0.3e-3, 1.0e-3, 71)),
        ("density", np.linspace(2000.0, 2600.0, 61)),
        ("youngs_modulus", np.linspace(60e9, 80e9, 81)),
    ):
        rows = beam.sweep_amplification(SLG_04, ACTUATOR, axis, grid.tolist())
        n_sq = np.array([row[2] for row in rows])
        assert np.all(np.diff(n_sq) < 0.0)


def test_geometry_rejects_nonpositive_width():
    with pytest.raises(InvalidProperty):
        BeamGeometry(width=0.0)
