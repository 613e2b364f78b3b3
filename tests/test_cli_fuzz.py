"""Fuzz of the CLI's numeric flags and input files.

Every command runs in-process through ``cli.main`` with warnings raised
as errors.  Flag values are drawn log-uniformly from about 1e-320 to
1e308, with either sign, and exact 0 and -0 mixed in.  Input files are
trace and spectrum CSVs whose cells mix numbers with odd cells (``nan``,
``1e999``, quoted or empty cells, non-ASCII digits...) and raw bytes,
and material JSON files with wrong keys, wrong types, ``Infinity`` and
integers beyond float range.  Glass names, in material records and in
``beam --name``, and the names of the one to three captures a
``reduce-traces`` run reads are drawn as text rich in commas, quotes and
line breaks; each capture's path must read back from its ``file`` cell.
Whatever the inputs, the run must end in a documented exit code (0, 2,
3 or 64) and raise nothing else; on exit 0 every row, as ``csv`` reads
it, must have one cell per header column, and every number cell must be
finite.  The one documented
exception is the ``psi`` cell of ``friction --model velocity`` at zero
amplitude, which prints ``inf``.  A drawn glass value exits alike at a
single ``beam`` point and as a one-value sweep.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpadlab import beam, bvdfit, circuit, cli, dataio

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

# any text, with the characters that would split a CSV row or line drawn often
NAME_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(',"\r\n')), max_size=6)
_NAME = NAME_TEXT.map(lambda name: [f"--name={name}"])

_GLASS = _argv(
    [],
    _flags(
        ["--thickness", "--density", "--youngs-modulus"],
        ["--actuator-thickness", "--actuator-density", "--actuator-youngs-modulus"],
    ),
    st.one_of(st.just([]), _NAME),
)
_GRID = st.builds(
    lambda axis, start, stop, count: ["--sweep", axis, f"--grid={start!r}:{stop!r}:{count}"],
    st.sampled_from(beam.SWEEP_AXES),
    VALUES,
    VALUES,
    st.integers(min_value=-1, max_value=5),
)
_GRID_VALUES = st.builds(
    lambda axis, values: ["--sweep", axis, "--grid-values=" + ",".join(map(repr, values))],
    st.sampled_from(beam.SWEEP_AXES),
    st.lists(VALUES, min_size=1, max_size=4),
)
BEAM = st.one_of(
    _argv(["beam"], _GLASS),
    _argv(["beam"], _GLASS, _GRID),
    _argv(["beam"], _GLASS, _GRID_VALUES),
    # a glass inside the model's range, so that the drawn name reaches the table
    _argv(["beam", "--thickness=1mm", "--density=2500", "--youngs-modulus=70GPa"], _NAME),
)

# fit flags that apply with --input as well as with --demo
_FIT_OPTIONS = st.tuples(
    _flags([], ["--include-shunt"]),
    st.one_of(st.just([]), st.integers(-2, 60).map(lambda n: [f"--max-iter={n}"])),
    st.sampled_from([[], ["--fit-c0"]]),
).map(lambda lists: [flag for flags in lists for flag in flags])

FIT = _argv(
    ["fit", "--demo"],
    st.builds(lambda n, seed: [f"--points={n}", f"--seed={seed}"], st.integers(-1, 12), st.integers(-1, 3)),
    _flags([], ["--c0", "--demo-fr", "--demo-c", "--demo-r", "--noise"]),
    _FIT_OPTIONS,
)

# --- input files ----------------------------------------------------------

# cells that float, np.loadtxt or the CSV module may read otherwise than a plain number
ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "1e-320", "", '"1"', '"1,2"', "1_0", "#", "\x1c1", "\u0661", " 1 "]
)

# how many odd cells or runs of raw bytes one file gets: mostly none, so that some runs get through
FEW = st.sampled_from([0, 0, 0, 1, 2])


def _splice_bytes(draw, data):
    """``data`` with a few runs of raw random bytes inserted."""
    for _ in range(draw(FEW)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


def _csv_bytes(draw, header, rows):
    """CSV bytes of ``rows`` (lists of floats), with a few cells made odd and raw bytes spliced in."""
    cells = [[repr(v) for v in row] for row in rows]
    for _ in range(draw(FEW) if cells else 0):
        row = draw(st.sampled_from(cells))
        row[draw(st.integers(0, len(row) - 1))] = draw(ODD_CELLS)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return _splice_bytes(draw, newline.join([header, *map(",".join, cells)]).encode("utf-8"))


@st.composite
def trace_files(draw, odd=True):
    """A capture of a drive tone sampled at 300 kHz, of 30 to 120 rows (that rate needs 40).

    With ``odd`` false it is well-formed: a known header, 40 rows or more, a
    tone inside the drive band, and no odd cell or raw bytes.
    """
    headers = ["v_piezo,v_shunt", "v_piezo,v_shunt,ldv"] * 3 + ["v_piezo", "v_piezo,v_shunt,ldv,x"]
    header = draw(st.sampled_from(headers if odd else headers[:2]))
    width = len(header.split(","))
    n = draw(st.integers(30 if odd else 40, 120))
    frequency = draw(st.floats(10e3, 70e3) if odd else st.floats(*dataio.EXPECTED_DRIVE_BAND_HZ))
    scale = draw(st.one_of(st.just(1.0), VALUES))
    t = np.arange(n) / 300e3
    columns = [scale * np.sin(2 * math.pi * frequency * t + phase) for phase in (0.0, -1.0, 0.4, 2.0)[:width]]
    rows = np.array(columns).T.tolist()
    if not odd:
        return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]).encode("utf-8")
    return _csv_bytes(draw, header, rows)


# capture file names rich in the characters that CSV quotes; no name holds "/" or NUL
FILE_NAMES = st.text(
    st.one_of(st.characters(exclude_categories=("Cs",), exclude_characters="/\x00"), st.sampled_from(',"\r\n')),
    max_size=6,
)


@st.composite
def captures(draw):
    """One to three (file name, bytes) captures; in half the runs every one is well-formed."""
    odd = draw(st.booleans())
    names = draw(st.lists(FILE_NAMES, min_size=1, max_size=3, unique=True))
    return [(name, draw(trace_files(odd))) for name in names]


@st.composite
def spectrum_files(draw):
    """A BVD spectrum of 0 to 24 points around 30 kHz, as magnitude and phase rows in drawn order."""
    header = draw(st.sampled_from([",".join(bvdfit.SPECTRUM_CSV_HEADER)] * 5 + ["frequency_hz,magnitude_ohm"]))
    n = draw(st.integers(0, 24))
    truth = circuit.BvdParams(1.0 / ((2 * math.pi * 30e3) ** 2 * 1e-9), 1e-9, draw(MAGNITUDES), 9.88e-9)
    freqs = np.linspace(27e3, 33e3, n)
    with np.errstate(all="ignore"):
        z = bvdfit.model_impedance(truth, freqs)
    rows = [[f, abs(v), math.degrees(math.atan2(v.imag, v.real))] for f, v in zip(freqs.tolist(), z.tolist())]
    rows = draw(st.permutations(rows)) if rows else rows
    return _csv_bytes(draw, header, [row[: len(header.split(","))] for row in rows])


# mostly a library glass or the name the drawn records use most
NAMES = st.one_of(st.sampled_from(["SLG_0.4", "Custom_1.0", "Custom_1.0", ""]), NAME_TEXT)
# the wide integers reach past float range, which ends near 1.8e308
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**400), 10**400), st.floats(), st.text(max_size=3), VALUES
)
# well-formed values, the thickness inside the library's band
_GOOD_FIELDS = {
    "name": NAMES,
    "thickness_m": st.floats(1e-4, 5e-3),
    "density_kg_m3": st.floats(1e3, 1e4),
    "youngs_modulus_pa": st.floats(1e9, 1e12),
}
_GLASS_RECORDS = st.fixed_dictionaries(_GOOD_FIELDS)
_ODD_RECORDS = st.one_of(
    st.fixed_dictionaries({key: st.one_of(value, _JSON_SCALARS) for key, value in _GOOD_FIELDS.items()}),
    st.dictionaries(st.sampled_from([*_GOOD_FIELDS, "thickness", ""]), _JSON_SCALARS, max_size=5),
    _JSON_SCALARS,
    st.lists(_JSON_SCALARS, max_size=2),
)


@st.composite
def material_files(draw):
    """A JSON document meant as glass records (``Infinity`` and ``NaN`` allowed), with raw bytes spliced in.

    Mostly an array of mostly well-formed records, so that some runs get through.
    """

    def record():
        return draw(_GLASS_RECORDS if draw(st.integers(0, 2)) else _ODD_RECORDS)

    payload = [record() for _ in range(draw(st.integers(0, 3)))] if draw(st.integers(0, 3)) else record()
    return _splice_bytes(draw, json.dumps(payload).encode("utf-8"))


def _name_flag(flag):
    return NAMES.map(lambda name: [f"{flag}={name}"])


MATERIALS_FILE = st.one_of(
    st.just(["materials"]),
    _argv(["materials"], _name_flag("--show")),
    _argv(["beam"], _name_flag("--glass"), st.one_of(st.just([]), _name_flag("--reference"))),
    _argv(["predict-power"], st.one_of(st.just([]), _name_flag("--reference"))),
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
    """Run ``argv`` and check its exit code and, on exit 0, its table; returns the table's rows, or None."""
    code, out = _run(argv)
    assert code in EXIT_CODES, argv
    if code != 0:
        return None
    while out.startswith("#"):  # the comment lines before the header
        out = out.split("\n", 1)[1]
    header, *table = csv.reader(io.StringIO(out, newline=""))
    for cells in table:
        assert len(cells) == len(header), (argv, cells)
        row = dict(zip(header, cells))
        for column, cell in row.items():
            if column in ("name", "file"):
                continue  # text, whatever it reads like
            try:
                number = float(cell)
            except ValueError:
                continue  # a name or a flag
            if column == "psi" and row["model"] == "velocity" and float(row["amplitude_m"]) == 0.0:
                assert cell == "inf", argv
                continue
            assert math.isfinite(number), (argv, column, cell)
    return table


@settings(max_examples=150)
@given(argv=FRICTION)
def test_friction_flags(argv):
    _check(argv)


@settings(max_examples=150)
@given(argv=CIRCUIT)
def test_circuit_flags(argv):
    _check(argv)


@settings(max_examples=150)
@given(argv=BEAM)
def test_beam_flags(argv):
    _check(argv)


# a glass inside the model's range; the drawn axis value replaces one of its fields
_GLASS_FIELDS = {"thickness": "0.4mm", "density": "2483", "youngs_modulus": "71GPa"}


@settings(max_examples=150)
@given(axis=st.sampled_from(beam.SWEEP_AXES), value=VALUES)
def test_a_sweep_point_exits_as_the_single_point_does(axis, value):
    def glass(fields):
        return [f"--{field.replace('_', '-')}={text}" for field, text in fields.items()]

    point = _run(["beam", *glass({**_GLASS_FIELDS, axis: repr(value)})])[0]
    sweep = _run(["beam", *glass(_GLASS_FIELDS), "--sweep", axis, f"--grid-values={value!r}"])[0]
    assert point == sweep, (axis, value)


@settings(max_examples=40)
@given(argv=FIT)
def test_fit_demo_flags(argv):
    _check(argv)


@settings(max_examples=60)
@given(
    files=captures(),
    flags=st.one_of(
        st.just(["--sample-rate=300kHz", "--ldv-kind=displacement"]),
        _argv(
            [],
            st.one_of(st.just(["--sample-rate=300kHz"]), _flags(["--sample-rate"])),
            _flags([], ["--shunt"]),
            st.sampled_from([[], ["--ldv-kind=velocity"], ["--piezo-column=source"]]),
        ),
    ),
)
def test_reduce_traces_files(scratch, files, flags):
    paths = []
    for name, content in files:
        path = scratch / f"trace{name}.csv"
        path.write_bytes(content)
        paths.append(str(path))
    table = _check(["reduce-traces", *paths, *flags])
    if table is not None:
        assert [cells[0] for cells in table] == paths, table


@settings(max_examples=60)
@given(
    content=spectrum_files(),
    flags=_argv([], st.one_of(st.just(["--c0=9.88nF"]), _flags(["--c0"])), _FIT_OPTIONS),
)
def test_fit_input_files(scratch, content, flags):
    path = scratch / "spectrum.csv"
    path.write_bytes(content)
    _check(["fit", f"--input={path}", *flags])


@settings(max_examples=100)
@given(content=material_files(), argv=MATERIALS_FILE)
def test_material_files(scratch, content, argv):
    path = scratch / "materials.json"
    path.write_bytes(content)
    _check([*argv, f"--file={path}"])
