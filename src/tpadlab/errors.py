"""Exception hierarchy for the tpadlab toolkit.

Two broad families matter to callers (and to the command line tool, which
maps them to distinct exit codes):

* :class:`ParseError` -- the input itself is unusable (malformed file,
  value that violates a physical invariant).  CLI exit code 2.
* :class:`AnalysisError` -- the input parsed fine but the requested
  computation cannot produce a meaningful answer.  CLI exit code 3.

The value records of every module are built by :func:`record`, a frozen
``dataclass`` without the import cost of :mod:`dataclasses`.
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


class UnwritableOutput(ParseError):
    """An output file or directory could not be written."""


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


def shown(value) -> str:
    """``repr(value)``, or a stand-in for an int too long for Python to convert to a string."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return "an integer too long to print"


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
            raise InvalidProperty(f"{prefix}{field} must be {rule} and finite, got {shown(value)}")


def record(cls=None, *, eq: bool = True):
    """Make ``cls`` a frozen value record, as ``dataclass(frozen=True, eq=eq)`` would.

    The fields are the class annotations, in order, and a class attribute is its field's default.
    ``__post_init__``, if the class has one, runs on each construction, also by ``replace(**changes)``,
    which returns a copy; it may store converted fields through ``vars(self)``.  With ``eq``,
    records compare and hash by type and field values, and without it by identity.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(cls.__annotations__)
    fields = frozenset(names)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or values.keys() != fields or not kwargs.keys().isdisjoint(names[: len(args)]):
            raise TypeError(f"{cls.__name__}() takes {names}, got {len(args)} positional and {sorted(kwargs)}")
        self.__dict__.update(values)
        post_init(self)

    def frozen(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    def field_values(self):
        return tuple(getattr(self, name) for name in names)

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, frozen, frozen
    cls.__repr__ = lambda self: f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"
    cls.replace = lambda self, **changes: type(self)(**dict(zip(names, field_values(self)), **changes))
    if eq:
        cls.__eq__ = lambda self, other: (
            field_values(self) == field_values(other) if type(other) is type(self) else NotImplemented
        )
        cls.__hash__ = lambda self: hash(field_values(self))
    return cls
