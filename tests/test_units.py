import pytest

from tpadlab import units


@pytest.mark.parametrize(
    "parse,text,expected",
    [
        (units.parse_length, "0.4mm", 0.4e-3),
        (units.parse_length, "3um", 3e-6),
        (units.parse_length, "3 µm", 3e-6),
        (units.parse_length, "0.0004", 0.0004),
        (units.parse_density, "2.483 g/cm3", 2483.0),
        (units.parse_density, "2483", 2483.0),
        (units.parse_pressure, "71GPa", 71e9),
        (units.parse_pressure, "71 kN/mm2", 71e9),
        (units.parse_frequency, "30kHz", 30e3),
        (units.parse_frequency, "30000", 30e3),
        (units.parse_capacitance, "9.88nF", 9.88e-9),
        (units.parse_capacitance, "500pF", 5e-10),
        (units.parse_resistance, "2.15kohm", 2150.0),
        (units.parse_inductance, "28.1mH", 28.1e-3),
        (units.parse_voltage, "40V", 40.0),
        (units.parse_velocity, "5cm/s", 0.05),
    ],
)
def test_suffix_parsing(parse, text, expected):
    assert parse(text) == pytest.approx(expected, rel=1e-15)


def test_length_suffix_is_case_sensitive():
    # mm and m differ only by case of repetition; no folding for lengths
    assert units.parse_length("4mm") == pytest.approx(4e-3)
    with pytest.raises(ValueError):
        units.parse_length("4 Meters")


def test_unknown_suffix_rejected():
    with pytest.raises(ValueError):
        units.parse_capacitance("9.88nX")
    with pytest.raises(ValueError):
        units.parse_frequency("fast")


@pytest.mark.parametrize(
    "parse,text",
    [
        (units.parse_voltage, "1e999"),
        (units.parse_frequency, "1e999 kHz"),
        (units.parse_length, "-1e999"),
        (units.parse_pressure, "1e300GPa"),
    ],
)
def test_non_finite_value_rejected(parse, text):
    with pytest.raises(ValueError, match="is not finite"):
        parse(text)
