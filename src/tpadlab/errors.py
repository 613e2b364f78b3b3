"""Exception hierarchy for the tpadlab toolkit.

Two broad families matter to callers (and to the command line tool, which
maps them to distinct exit codes):

* :class:`ParseError` -- the input itself is unusable (malformed file,
  value that violates a physical invariant).  CLI exit code 2.
* :class:`AnalysisError` -- the input parsed fine but the requested
  computation cannot produce a meaningful answer.  CLI exit code 3.
"""

from __future__ import annotations

import math
import numbers


class TpadlabError(Exception):
    """Base class for all toolkit-specific errors."""


class ParseError(TpadlabError):
    """Input data or declared properties could not be interpreted."""


class AnalysisError(TpadlabError):
    """A computation failed on otherwise well-formed input."""


class MalformedMaterialFile(ParseError):
    """Material JSON file violates the expected schema."""


class MalformedSpectrumFile(ParseError):
    """Impedance spectrum CSV violates the expected layout."""


class MalformedTraceFile(ParseError):
    """Time-trace CSV violates the expected layout."""


class InvalidProperty(ParseError, ValueError):
    """A physical property value is outside its admissible range (also a ``ValueError``)."""


class UnknownMaterial(ParseError):
    """A material name was not found in the library."""


class InsufficientSamples(ParseError):
    """A time trace is too short to analyze."""


class OutOfContourRange(AnalysisError):
    """Frequency lies outside the fitted friction-contour band."""


class NoResonanceFound(AnalysisError):
    """An impedance spectrum shows no usable resonance features."""


class FitNotConverged(AnalysisError):
    """Least-squares refinement hit its iteration cap or diverged.

    Carries the best parameter estimate seen so far in ``result`` so a
    caller can inspect how close the fit got.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


class DriveFrequencyNotFound(AnalysisError):
    """No dominant spectral line inside the expected drive band."""


class NoLdvChannel(AnalysisError):
    """A vibrometer-based quantity was requested from traces without one."""


class EmptyGrid(AnalysisError):
    """A parameter sweep was requested over an empty grid."""


def is_finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, within float range (an int too large for a float is not)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_positive(record, prefix: str, *fields: str, allow_zero: bool = False) -> None:
    """Raise InvalidProperty unless the named fields of a value record, or a mapping such as
    ``locals()``, are finite reals > 0 (or 0 too, with ``allow_zero``) and not bools.  The message
    names the field after ``prefix``: ``glass density must be positive and finite, got inf``.
    """
    values = record if isinstance(record, dict) else vars(record)
    for field in fields:
        value = values[field]
        if not (is_finite_real(value) and (value >= 0 if allow_zero else value > 0)):
            rule = ">= 0" if allow_zero else "positive"
            raise InvalidProperty(f"{prefix}{field} must be {rule} and finite, got {value!r}")
