"""Golden outputs of the command line tool.

Every example command of the README, plus ``reduce-traces`` on a
power-only capture and on all-zero captures with and without LDV, and a
2001-point sweep and a ``--grid-values`` sweep whose cells print in
exponent notation, runs
in-process through ``cli.main`` in a fresh working directory that holds
the inputs it names.  Its stdout must equal ``golden/<case>.stdout``
byte for byte and its exit code ``golden/exit_codes.json``.  Files a
case writes (``fit --demo-out``, ``repro fig10 --out``) must equal the
files under ``golden/<case>/``, and no others may appear there.  The
cases also run once more in one process, in reverse order, each after a
usage error and an analysis failure, to show that no call leaves state
in the parser for the next.

The inputs are built here without randomness: the spectrum comes from
``fit --demo --demo-out``, and the captures are sums of sinusoids
written to nine significant digits.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tpadlab import cli

GOLDEN = Path(__file__).parent / "golden"
FS = 300e3


def _write_capture(name, v_piezo, v_shunt, ldv=None):
    columns = [v_piezo, v_shunt] + ([ldv] if ldv is not None else [])
    lines = ["v_piezo,v_shunt" + (",ldv" if ldv is not None else "")]
    lines += [",".join(f"{v:.9e}" for v in row) for row in zip(*columns)]
    Path(name).write_text("\n".join(lines) + "\n")


def _tone(frequency, n=30000):
    return 2.0 * math.pi * frequency * np.arange(n) / FS


def _trials():
    # an on-bin tone, then an off-bin tone with a weak third harmonic
    w = _tone(30e3)
    _write_capture("trial1.csv", 40.0 * np.sin(w), 10.0 * np.sin(w - 1.0), 3e-6 * np.sin(w + 0.4))
    w = _tone(29.87e3)
    _write_capture(
        "trial2.csv",
        35.0 * np.sin(w) + 0.5 * np.sin(3.0 * w),
        8.0 * np.sin(w - 0.7),
        2.2e-6 * np.sin(w + 1.1) + 1e-8 * np.sin(3.0 * w),
    )


def _power_only():
    w = _tone(41.3e3)
    _write_capture("power_only.csv", 25.0 * np.sin(w), 6.0 * np.sin(w - 0.3))


def _zeros():
    _write_capture("zeros.csv", np.zeros(30000), np.zeros(30000))


def _zeros_ldv():
    _write_capture("zeros_ldv.csv", np.zeros(30000), np.zeros(30000), np.zeros(30000))


def _spectrum():
    assert cli.main(["fit", "--demo", "--demo-out", "spectrum.csv"]) == 0


CIRCUIT = ["circuit", "--inductance", "28.1mH", "--capacitance", "1nF", "--resistance", "2150", "--c0", "9.88nF"]

# name, argv, input builder (None: no input files)
CASES = [
    ("materials_list", ["materials", "--list"], None),
    ("materials_show", ["materials", "--show", "SLG_0.4"], None),
    ("materials_actuator", ["materials", "--actuator"], None),
    ("friction_velocity", ["friction", "--model", "velocity", "--freq", "30kHz", "--amp", "3um"], None),
    (
        "friction_squeeze",
        ["friction", "--model", "squeeze", "--amp", "2um", "--u0", "2um", "--ps", "126.65625kPa"],
        None,
    ),
    ("friction_contour", ["friction", "--model", "contour", "--freq", "50kHz"], None),
    ("circuit_voltage", CIRCUIT + ["--voltage", "40"], None),
    ("circuit_freq", CIRCUIT + ["--freq", "30kHz"], None),
    ("fit_input", ["fit", "--input", "spectrum.csv", "--c0", "9.88nF"], _spectrum),
    ("fit_demo", ["fit", "--demo", "--demo-out", "demo_spectrum.csv"], None),
    ("beam_reference", ["beam", "--glass", "Gorilla_0.8", "--reference", "SLG_0.4"], None),
    ("beam_sweep", ["beam", "--glass", "SLG_0.4", "--sweep", "thickness", "--grid", "0.3mm:1mm:71"], None),
    (
        "beam_sweep_2001",
        ["beam", "--glass", "Gorilla_0.8", "--sweep", "density", "--grid", "2g/cm3:2.6g/cm3:2001"],
        None,
    ),
    (
        "beam_sweep_exponent",
        ["beam", "--glass", "SLG_0.4", "--sweep", "youngs_modulus", "--grid-values", "1e-12,1e-3,70GPa,5e12"],
        None,
    ),
    (
        "beam_explicit",
        ["beam", "--thickness", "0.5mm", "--density", "2.5g/cm3", "--youngs-modulus", "70GPa"],
        None,
    ),
    ("predict_power", ["predict-power", "--reference", "SLG_0.4"], None),
    (
        "reduce_traces",
        [
            "reduce-traces", "trial1.csv", "trial2.csv", "--sample-rate", "300kHz",
            "--shunt", "100", "--ldv-kind", "displacement",
        ],
        _trials,
    ),
    ("reduce_power_only", ["reduce-traces", "power_only.csv", "--sample-rate", "300kHz"], _power_only),
    ("reduce_zeros", ["reduce-traces", "zeros.csv", "--sample-rate", "300kHz"], _zeros),
    (
        "reduce_zeros_ldv",
        ["reduce-traces", "zeros_ldv.csv", "--sample-rate", "300kHz", "--ldv-kind", "displacement"],
        _zeros_ldv,
    ),
    ("repro_fig4", ["repro", "fig4"], None),
    ("repro_fig10", ["repro", "fig10"], None),
    ("repro_fig10_out", ["repro", "fig10", "--out", "tables/"], None),
    ("repro_fig11", ["repro", "fig11"], None),
]


def _written_files(root):
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file())


def _run(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _check_case(name, argv, build, workdir, monkeypatch, capsys):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    if build is not None:
        build()
    inputs = set(_written_files(workdir))
    capsys.readouterr()
    code = _run(argv)
    out = capsys.readouterr().out.encode("utf-8")

    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    expected_dir = GOLDEN / name
    expected = _written_files(expected_dir) if expected_dir.is_dir() else []
    written = [path for path in _written_files(workdir) if path not in inputs]
    assert written == expected
    for path in expected:
        assert (workdir / path).read_bytes() == (expected_dir / path).read_bytes(), path


@pytest.mark.parametrize("name,argv,build", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_golden(name, argv, build, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TPADLAB_MATERIALS", raising=False)
    _check_case(name, argv, build, tmp_path / "run", monkeypatch, capsys)


def test_golden_outputs_hold_in_one_process_in_reverse_order(tmp_path, monkeypatch, capsys):
    # cli.main reuses one parser per process; no call may leave state for the next
    monkeypatch.delenv("TPADLAB_MATERIALS", raising=False)
    # both set flags that the golden cases leave at their defaults
    usage_error = [
        "beam", "--thickness", "1mm", "--density", "2g/cm3", "--youngs-modulus", "60GPa",
        "--actuator-thickness", "1mm", "--sweep", "thickness",
    ]  # no --grid
    analysis_error = [
        "friction", "--model", "velocity", "--freq", "30kHz", "--amp", "1e-320", "--mu0", "0.9", "--psi-star", "2",
    ]
    for name, argv, build in reversed(CASES):
        assert _run(usage_error) == 64
        assert _run(analysis_error) == 3
        assert capsys.readouterr().out == ""
        _check_case(name, argv, build, tmp_path / name, monkeypatch, capsys)


def test_every_golden_file_belongs_to_a_case():
    names = {case[0] for case in CASES}
    assert set(json.loads((GOLDEN / "exit_codes.json").read_text())) == names
    stems = {p.name.split(".")[0] for p in GOLDEN.iterdir() if p.name != "exit_codes.json"}
    assert stems <= names
