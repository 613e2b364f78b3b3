"""Unit-suffix parsing for command line inputs, and the CSV table writer for outputs.

All internal computation is strict SI (m, kg, s, Hz, Pa, F, Ohm, V, W).
Conversions happen only here, at the program boundary.  Each parser
accepts a bare number (taken as SI) or a number followed by one of the
listed suffixes, with optional whitespace in between, e.g. ``"0.4mm"``,
``"2.483 g/cm3"``, ``"71 kN/mm2"``, ``"9.88nF"``.  A suffix matches in any
case, except that a leading ``m`` (milli, or metre) and ``M`` (mega) must be
typed as listed: ``"30kHZ"`` is 30 kHz, and ``"30mHz"`` is an unknown unit.

Parsers raise :class:`UnitError` on unknown suffixes and on values that
overflow to infinity, so they can be used directly as ``argparse`` type
callables (argparse turns that into a usage error that keeps the message).
"""

from __future__ import annotations

import argparse
import math
import re
from itertools import chain, filterfalse

from .errors import AnalysisError

_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")

# suffix -> multiplier into the SI unit of each quantity kind, each suffix in its canonical spelling
_LENGTH = {"": 1.0, "m": 1.0, "mm": 1e-3, "um": 1e-6, "µm": 1e-6, "μm": 1e-6, "nm": 1e-9}
_DENSITY = {"": 1.0, "kg/m3": 1.0, "g/cm3": 1e3, "g/cc": 1e3}
_PRESSURE = {"": 1.0, "Pa": 1.0, "kPa": 1e3, "MPa": 1e6, "GPa": 1e9, "N/mm2": 1e6, "kN/mm2": 1e9}
_FREQUENCY = {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6}
_CAPACITANCE = {"": 1.0, "F": 1.0, "mF": 1e-3, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12}
_RESISTANCE = {"": 1.0, "ohm": 1.0, "kohm": 1e3, "Mohm": 1e6}
_INDUCTANCE = {"": 1.0, "H": 1.0, "mH": 1e-3, "uH": 1e-6}
_VOLTAGE = {"": 1.0, "V": 1.0, "kV": 1e3, "mV": 1e-3}
_VELOCITY = {"": 1.0, "m/s": 1.0, "mm/s": 1e-3, "cm/s": 1e-2}

# what a vibrometer (LDV) channel carries: a displacement in m or a velocity in m/s
LDV_KINDS = ("displacement", "velocity")

# the most points a sweep grid or a synthetic spectrum may have; a larger count is refused before any allocation
MAX_POINTS = 1_000_000


class UnitError(argparse.ArgumentTypeError, ValueError):
    """A quantity that does not parse; argparse prints its message after the flag's name."""


def _parse(text: str, table: dict[str, float], kind: str) -> float:
    match = _QUANTITY_RE.match(text)
    if not match:
        raise UnitError(f"cannot parse {kind} value {text!r}")
    value, suffix = match.groups()
    # any case matches, except that a leading m (milli, metre) and M (mega) differ
    folded, lead = suffix.lower(), suffix[:1] if suffix[:1] in ("m", "M") else None
    unit = next((u for u in table if u.lower() == folded and lead in (None, u[:1])), None)
    if unit is None:
        known = ", ".join(sorted(s for s in table if s))
        raise UnitError(f"unknown {kind} unit {suffix!r} in {text!r} (expected one of: {known})")
    result = float(value) * table[unit]
    if not math.isfinite(result):
        raise UnitError(f"{kind} value {text!r} is not finite")
    return result


def parse_length(text: str) -> float:
    """Parse a length, returning meters.  Suffixes: m, mm, um, µm, μm, nm."""
    return _parse(text, _LENGTH, "length")


def parse_density(text: str) -> float:
    """Parse a density, returning kg/m^3.  Suffixes: kg/m3, g/cm3, g/cc."""
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
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_TEXT = (str, bool, type(None))  # the kinds of cell that make a column text


def _text(cell) -> str:
    """A cell of a column that holds text; RFC 4180 quotes a string with , " CR or LF, doubling each inner "."""
    if isinstance(cell, str):
        return '"%s"' % cell.replace('"', '""') if _NEEDS_QUOTES.search(cell) else cell
    if isinstance(cell, bool):
        return "true" if cell else "false"
    return "" if cell is None else _NUMBER % cell


def csv_table(header: str, rows) -> list[str]:
    """The lines of a CSV table: ``header``, then one line per row of cells.

    Strings pass as they are unless they hold a comma, a double quote, CR
    or LF: those are quoted as RFC 4180 says, with each inner double quote
    doubled.  None is empty, bools are ``true``/``false`` and numbers
    print to 12 significant digits in ``%g`` style.
    Every row is rendered by one ``%`` template: a column of numbers only
    takes ``%.12g``, and any other column is turned into text cell by cell.

    Raises:
        AnalysisError: a number anywhere in the table is not finite, so no
            line ever prints ``inf`` or ``nan``.
        ValueError: the rows differ in length.
    """
    rows = [tuple(row) for row in rows]
    columns = list(zip(*rows, strict=True))
    text = [any(issubclass(kind, _TEXT) for kind in set(map(type, column))) for column in columns]
    numbers = chain.from_iterable(rows)
    if any(text):  # numbers still reads the rows as given
        numbers = (cell for cell in numbers if not isinstance(cell, _TEXT))
        rows = zip(*(map(_text, column) if is_text else column for column, is_text in zip(columns, text)))
    bad = next(filterfalse(math.isfinite, numbers), None)  # the first, row by row
    if bad is not None:
        raise AnalysisError(f"result outside the model's range (got {float(bad)})")
    return [header, *map(",".join(["%s" if is_text else _NUMBER for is_text in text]).__mod__, rows)]
