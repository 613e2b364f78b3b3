"""Fuzz of the CLI's numeric flags.

Every command runs in-process through ``cli.main`` with warnings raised
as errors.  Flag values are drawn log-uniformly from about 1e-320 to
1e308, with either sign, and exact 0 and -0 mixed in.  Whatever the
values, the run must end in a documented exit code (0, 2, 3 or 64) and
raise nothing else; on exit 0 every number cell must be finite.  The
one documented exception is the ``psi`` cell of ``friction --model
velocity`` at zero amplitude, which prints ``inf``.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from tpadlab import beam, cli

EXIT_CODES = {0, 2, 3, 64}

MAGNITUDES = st.floats(min_value=-320.0, max_value=308.0).map(lambda e: 10.0**e)
# mostly positive, so that runs with several flags still reach exit 0 often
SIGNS = st.sampled_from([1.0] * 8 + [-1.0, 0.0, -0.0])
VALUES = st.builds(lambda m, sign: sign * m, MAGNITUDES, SIGNS)


def _flags(required, optional=()):
    """argv pairs: every required flag with a drawn value, each optional one or not."""
    values = [st.tuples(st.just(flag), VALUES) for flag in required]
    values += [st.one_of(st.none(), st.tuples(st.just(flag), VALUES)) for flag in optional]
    return st.tuples(*values).map(lambda pairs: [f"{flag}={value!r}" for flag, value in filter(None, pairs)])


def _argv(head, *flag_lists):
    return st.tuples(*flag_lists).map(lambda lists: [*head, *(flag for flags in lists for flag in flags)])


FRICTION = st.one_of(
    _argv(
        ["friction", "--model", "velocity"],
        _flags(["--freq", "--amp"], ["--explore-velocity", "--mu0", "--poisson", "--psi-star"]),
    ),
    _argv(["friction", "--model", "squeeze"], _flags(["--amp", "--u0", "--ps"], ["--p0"])),
    _argv(["friction", "--model", "contour"], _flags(["--freq"])),
)

_BVD = _flags(["--inductance", "--capacitance", "--resistance", "--c0"])
CIRCUIT = st.one_of(
    _argv(["circuit"], _BVD, _flags(["--voltage"], ["--shunt"]), st.sampled_from([[], ["--peak"]])),
    _argv(["circuit"], _BVD, _flags(["--freq"])),
)

_GLASS = _flags(
    ["--thickness", "--density", "--youngs-modulus"],
    ["--actuator-thickness", "--actuator-density", "--actuator-youngs-modulus"],
)
_GRID = st.builds(
    lambda axis, start, stop, count: ["--sweep", axis, f"--grid={start!r}:{stop!r}:{count}"],
    st.sampled_from(beam.SWEEP_AXES),
    VALUES,
    VALUES,
    st.integers(min_value=-1, max_value=5),
)
BEAM = st.one_of(_argv(["beam"], _GLASS), _argv(["beam"], _GLASS, _GRID))

FIT = _argv(
    ["fit", "--demo"],
    st.builds(lambda n, seed: [f"--points={n}", f"--seed={seed}"], st.integers(-1, 12), st.integers(-1, 3)),
    _flags([], ["--c0", "--demo-fr", "--demo-c", "--demo-r", "--noise"]),
)


def _run(argv):
    """Run the CLI with warnings as errors; returns (exit code, stdout)."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _check(argv):
    code, out = _run(argv)
    assert code in EXIT_CODES, argv
    if code != 0:
        return
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for column, cell in row.items():
            try:
                number = float(cell)
            except ValueError:
                continue  # a name or a flag
            if column == "psi" and row["model"] == "velocity" and float(row["amplitude_m"]) == 0.0:
                assert cell == "inf", argv
                continue
            assert math.isfinite(number), (argv, column, cell)


@settings(database=None, deadline=None, max_examples=150)
@given(argv=FRICTION)
def test_friction_flags(argv):
    _check(argv)


@settings(database=None, deadline=None, max_examples=150)
@given(argv=CIRCUIT)
def test_circuit_flags(argv):
    _check(argv)


@settings(database=None, deadline=None, max_examples=150)
@given(argv=BEAM)
def test_beam_flags(argv):
    _check(argv)


@settings(database=None, deadline=None, max_examples=40)
@given(argv=FIT)
def test_fit_demo_flags(argv):
    _check(argv)
