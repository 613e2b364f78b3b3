import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpadlab import units
from tpadlab.errors import AnalysisError


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
    # a leading m never folds to M, so "4 Meters" is no length even where case folds elsewhere
    assert units.parse_length("4mm") == pytest.approx(4e-3)
    with pytest.raises(ValueError):
        units.parse_length("4 Meters")


def test_unknown_suffix_rejected():
    with pytest.raises(ValueError):
        units.parse_capacitance("9.88nX")
    with pytest.raises(ValueError):
        units.parse_frequency("fast")


# each parser with its suffix table
PARSERS = [
    (units.parse_length, units._LENGTH),
    (units.parse_density, units._DENSITY),
    (units.parse_pressure, units._PRESSURE),
    (units.parse_frequency, units._FREQUENCY),
    (units.parse_capacitance, units._CAPACITANCE),
    (units.parse_resistance, units._RESISTANCE),
    (units.parse_inductance, units._INDUCTANCE),
    (units.parse_voltage, units._VOLTAGE),
    (units.parse_velocity, units._VELOCITY),
]
ENTRIES = [(parse, suffix, multiplier) for parse, table in PARSERS for suffix, multiplier in table.items()]
BLANKS = st.sampled_from(["", " ", "  ", "\t"])


@settings(max_examples=40)
@pytest.mark.parametrize(
    "parse,suffix,multiplier", ENTRIES, ids=[f"{parse.__name__}-{suffix}" for parse, suffix, _ in ENTRIES]
)
@given(value=st.floats(allow_nan=False, allow_infinity=False), data=st.data())
def test_unit_suffixes_parse_back_consistently(parse, suffix, multiplier, value, data):
    # the canonical suffix in any case of each character but a leading m or M, blanks around it
    lead = 1 if suffix[:1] in ("m", "M") else 0
    cased = suffix[:lead] + "".join(data.draw(st.sampled_from([c.lower(), c.upper()])) for c in suffix[lead:])
    text = data.draw(BLANKS) + repr(value) + data.draw(BLANKS) + cased + data.draw(BLANKS)
    expected = value * multiplier
    if math.isfinite(expected):
        assert parse(text) == expected
    else:
        with pytest.raises(units.UnitError, match="is not finite"):
            parse(text)


@pytest.mark.parametrize(
    "parse,text",
    [
        (units.parse_frequency, "30mHz"),
        (units.parse_resistance, "5mOhm"),
        (units.parse_pressure, "3mPa"),
        (units.parse_voltage, "40MV"),
        (units.parse_inductance, "28.1MH"),
        (units.parse_capacitance, "1MF"),
        (units.parse_length, "5M"),
        (units.parse_length, "5Mm"),
        (units.parse_velocity, "5M/S"),
    ],
)
def test_milli_and_mega_do_not_collide(parse, text):
    with pytest.raises(units.UnitError, match=r"^unknown \w+ unit "):
        parse(text)


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


# --- CSV table writer ---------------------------------------------------


def _reference_cell(value) -> str:
    """The per-cell writer that the table writer replaced, kept as the reference; strings as ``csv`` quotes them."""
    if isinstance(value, str):
        line = io.StringIO()
        csv.writer(line).writerow([value, ""])  # a second field: csv quotes a lone empty field
        return line.getvalue().removesuffix(",\r\n")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    number = float(value)
    if not math.isfinite(number):
        raise AnalysisError(f"result outside the model's range (got {number})")
    return format(number, ".12g")


def _reference_row(*cells) -> str:
    return ",".join(map(_reference_cell, cells))


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # +-0.0, subnormals, up to +-1.8e308
CELLS = {
    "float": FINITE,
    "int": st.integers(-(10**300), 10**300),
    "float64": FINITE.map(np.float64),
    "bool": st.booleans(),
    "none": st.none(),
    "str": st.text(max_size=8),
}
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, np.float64("-inf"), np.float64("nan")])


@st.composite
def tables(draw, min_rows=0):
    """Rows of one width; each column holds one kind of cell, or a mix of all kinds."""
    kinds = draw(st.lists(st.sampled_from([*CELLS, "mixed"]), min_size=1, max_size=6))
    columns = [CELLS.get(kind, st.one_of(*CELLS.values())) for kind in kinds]
    return draw(st.lists(st.tuples(*columns), min_size=min_rows, max_size=12))


@settings(max_examples=300)
@given(rows=tables())
def test_table_lines_match_the_per_cell_reference(rows):
    assert units.csv_table("header", rows) == ["header", *(_reference_row(*row) for row in rows)]


@settings(max_examples=300)
@given(rows=tables(min_rows=1), data=st.data())
def test_a_non_finite_number_fails_the_whole_table(rows, data):
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i] = rows[i][:j] + (data.draw(NON_FINITE),) + rows[i][j + 1 :]
    with pytest.raises(AnalysisError) as expected:
        for row in rows:
            _reference_row(*row)
    with pytest.raises(AnalysisError) as raised:
        units.csv_table("header", rows)
    assert str(raised.value) == str(expected.value)  # names the first non-finite number, row by row


def test_table_writer_edges():
    assert units.csv_table("header", []) == ["header"]
    assert units.csv_table("a", [["%s", "100%"], ("x", 1.5)]) == ["a", "%s,100%", "x,1.5"]
    assert units.csv_table("a,b", [("x,y", 'q"'), ("", "\r\n")]) == ["a,b", '"x,y","q"""', ',"\r\n"']
    with pytest.raises(ValueError):
        units.csv_table("a,b", [(1.0, 2.0), (3.0,)])
