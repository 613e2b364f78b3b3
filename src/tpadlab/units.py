"""Unit-suffix parsing for command line inputs, and the CSV table writer for outputs.

All internal computation is strict SI (m, kg, s, Hz, Pa, F, Ohm, V, W).
Conversions happen only here, at the program boundary.  Each parser
accepts a bare number (taken as SI) or a number followed by one of the
listed suffixes, with optional whitespace in between, e.g. ``"0.4mm"``,
``"2.483 g/cm3"``, ``"71 kN/mm2"``, ``"9.88nF"``.

Parsers raise :class:`ValueError` on unknown suffixes and on values that
overflow to infinity, so they can be used directly as ``argparse`` type
callables (argparse turns that into a usage error).
"""

from __future__ import annotations

import math
import re
from itertools import chain, filterfalse

from .errors import AnalysisError

_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")

# suffix -> multiplier into the SI unit of each quantity kind
_LENGTH = {"": 1.0, "m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "μm": 1e-6, "nm": 1e-9}
_DENSITY = {"": 1.0, "kg/m3": 1.0, "g/cm3": 1e3, "g/cc": 1e3}
_PRESSURE = {
    "": 1.0,
    "pa": 1.0,
    "kpa": 1e3,
    "mpa": 1e6,
    "gpa": 1e9,
    "n/mm2": 1e6,
    "kn/mm2": 1e9,
}
_FREQUENCY = {"": 1.0, "hz": 1.0, "khz": 1e3, "mhz": 1e6}
_CAPACITANCE = {"": 1.0, "f": 1.0, "mf": 1e-3, "uf": 1e-6, "nf": 1e-9, "pf": 1e-12}
_RESISTANCE = {"": 1.0, "ohm": 1.0, "kohm": 1e3, "mohm": 1e6}
_INDUCTANCE = {"": 1.0, "h": 1.0, "mh": 1e-3, "uh": 1e-6}
_VOLTAGE = {"": 1.0, "v": 1.0, "kv": 1e3, "mv": 1e-3}
_VELOCITY = {"": 1.0, "m/s": 1.0, "mm/s": 1e-3, "cm/s": 1e-2}

# what a vibrometer (LDV) channel carries: a displacement in m or a velocity in m/s
LDV_KINDS = ("displacement", "velocity")


def _parse(text: str, table: dict[str, float], kind: str, casefold: bool = True) -> float:
    match = _QUANTITY_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse {kind} value {text!r}")
    value, suffix = match.groups()
    if casefold:
        suffix = suffix.lower()
    if suffix not in table:
        known = ", ".join(sorted(s for s in table if s))
        raise ValueError(f"unknown {kind} unit {suffix!r} in {text!r} (expected one of: {known})")
    result = float(value) * table[suffix]
    if not math.isfinite(result):
        raise ValueError(f"{kind} value {text!r} is not finite")
    return result


def parse_length(text: str) -> float:
    """Parse a length, returning meters.  Suffixes: m, mm, um, nm."""
    # case-sensitive: mm vs m matters, and so would mF vs F elsewhere
    return _parse(text, _LENGTH, "length", casefold=False)


def parse_density(text: str) -> float:
    """Parse a density, returning kg/m^3.  Suffixes: kg/m3, g/cm3."""
    return _parse(text, _DENSITY, "density")


def parse_pressure(text: str) -> float:
    """Parse a pressure or modulus, returning Pa.

    Suffixes: Pa, kPa, MPa, GPa, N/mm2, kN/mm2.
    """
    return _parse(text, _PRESSURE, "pressure")


def parse_frequency(text: str) -> float:
    """Parse a frequency, returning Hz.  Suffixes: Hz, kHz, MHz."""
    return _parse(text, _FREQUENCY, "frequency")


def parse_capacitance(text: str) -> float:
    """Parse a capacitance, returning F.  Suffixes: F, mF, uF, nF, pF."""
    return _parse(text, _CAPACITANCE, "capacitance")


def parse_resistance(text: str) -> float:
    """Parse a resistance, returning Ohm.  Suffixes: ohm, kohm, Mohm."""
    return _parse(text, _RESISTANCE, "resistance")


def parse_inductance(text: str) -> float:
    """Parse an inductance, returning H.  Suffixes: H, mH, uH."""
    return _parse(text, _INDUCTANCE, "inductance")


def parse_voltage(text: str) -> float:
    """Parse a voltage, returning V.  Suffixes: V, mV, kV."""
    return _parse(text, _VOLTAGE, "voltage")


def parse_velocity(text: str) -> float:
    """Parse a velocity, returning m/s.  Suffixes: m/s, mm/s, cm/s."""
    return _parse(text, _VELOCITY, "velocity")


_NUMBER = "%.12g"
# chunks of cells whose text is fixed: "%.0s" takes the cell and prints nothing
_LITERAL = {True: "true%.0s", False: "false%.0s", None: "%.0s"}
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(cell: str) -> str:
    """A string cell as RFC 4180 writes it: in double quotes, each inner one doubled, if it holds , " CR or LF."""
    return '"%s"' % cell.replace('"', '""') if _NEEDS_QUOTES.search(cell) else cell


def _chunk(cell) -> str:
    """A cell's part of its row's ``%`` template."""
    if cell is None or type(cell) is bool:
        return _LITERAL[cell]
    return "%s" if isinstance(cell, str) else _NUMBER


def csv_table(header: str, rows) -> list[str]:
    """The lines of a CSV table: ``header``, then one line per row of cells.

    Strings pass as they are unless they hold a comma, a double quote, CR
    or LF: those are quoted as RFC 4180 says, with each inner double quote
    doubled.  None is empty, bools are ``true``/``false`` and numbers
    print to 12 significant digits in ``%g`` style.
    Each row is rendered by one ``%`` template built from its cells' kinds;
    when each column holds one kind of cell, other than bool, every row
    gets the same template.

    Raises:
        AnalysisError: a number anywhere in the table is not finite, so no
            line ever prints ``inf`` or ``nan``.
        ValueError: the rows differ in length.
    """
    rows = [tuple(row) for row in rows]
    columns = list(zip(*rows, strict=True))
    shared = []  # per column: the chunk of all its cells, or None where it varies by cell
    for column in columns:
        kinds = set(map(type, column))
        shared.append(_chunk(column[0]) if len(kinds) == 1 and bool not in kinds else None)
    numbers = [  # the number columns, with 0.0 for the other cells of a varying column
        column if chunk else [cell if _chunk(cell) == _NUMBER else 0.0 for cell in column]
        for column, chunk in zip(columns, shared)
        if chunk in (_NUMBER, None)
    ]
    if not all(map(math.isfinite, chain.from_iterable(numbers))):
        bad = next(filterfalse(math.isfinite, chain.from_iterable(zip(*numbers))))  # the first, row by row
        raise AnalysisError(f"result outside the model's range (got {float(bad)})")
    if "%s" in shared or None in shared:  # a column that can hold strings; a table of numbers skips this
        rows = [tuple(_quoted(cell) if isinstance(cell, str) else cell for cell in row) for row in rows]
    if None not in shared:
        return [header, *map(",".join(shared).__mod__, rows)]
    return [header, *(",".join(c or _chunk(cell) for c, cell in zip(shared, row)) % row for row in rows)]
